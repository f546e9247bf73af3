package sched

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mdrs/internal/resource"
	"mdrs/internal/vector"
)

// newSiteIndex builds a standalone index over the system's current
// loads; production code reuses the scratch's through reset.
func newSiteIndex(sys *resource.System) *siteIndex {
	return new(siteIndex).reset(sys)
}

// pickScan is the oracle the index is checked against: the naive
// Figure 3 rule, a linear scan over all P sites with the same
// (l, sum, id) ordering.
func pickScan(sys *resource.System, bans []bool) int {
	best := -1
	var bestKey siteKey
	for j := 0; j < sys.P(); j++ {
		if bans[j] {
			continue
		}
		s := sys.Site(j)
		k := siteKey{l: s.LoadLength(), sum: s.LoadSum(), id: j}
		if best < 0 || keyLess(k, bestKey) {
			best, bestKey = j, k
		}
	}
	return best
}

// checkIndex holds the index to its invariants against the system it
// was built over: order is strictly ascending under keyLess, names each
// site exactly once, and every key is the site's current load.
func checkIndex(t *testing.T, ix *siteIndex, sys *resource.System) {
	t.Helper()
	if len(ix.order) != sys.P() {
		t.Fatalf("index holds %d sites, system has %d", len(ix.order), sys.P())
	}
	seen := make([]bool, sys.P())
	for i, k := range ix.order {
		if k.id < 0 || k.id >= sys.P() || seen[k.id] {
			t.Fatalf("order[%d] names site %d (out of range or twice)", i, k.id)
		}
		seen[k.id] = true
		if s := sys.Site(k.id); k.l != s.LoadLength() || k.sum != s.LoadSum() {
			t.Fatalf("order[%d] = %+v, site %d carries (%g, %g)", i, k, k.id, s.LoadLength(), s.LoadSum())
		}
		if i > 0 && !keyLess(ix.order[i-1], k) {
			t.Fatalf("order[%d] = %+v not above order[%d] = %+v", i, k, i-1, ix.order[i-1])
		}
	}
}

// pickChecked is one pick held to the scan oracle: pick and pickSkips
// stop at the same position, that position names pickScan's site, and
// the skip count is the number of banned sites ahead of it. It returns
// the position, -1 when every site is banned.
func pickChecked(t *testing.T, ix *siteIndex, sys *resource.System, bans []bool) int {
	t.Helper()
	at := ix.pick(bans)
	at2, skipped := ix.pickSkips(bans)
	if at != at2 {
		t.Fatalf("pick = %d, pickSkips = %d (bans %v)", at, at2, bans)
	}
	want := pickScan(sys, bans)
	if at < 0 {
		if want != -1 || skipped != sys.P() {
			t.Fatalf("pick = -1 with scan = %d, %d skipped of %d", want, skipped, sys.P())
		}
		return at
	}
	if got := ix.order[at].id; got != want {
		t.Fatalf("pick = site %d, scan = %d (bans %v)", got, want, bans)
	}
	ahead := 0
	for _, k := range ix.order[:at] {
		if bans[k.id] {
			ahead++
		}
	}
	if skipped != ahead || ahead != at {
		t.Fatalf("pickSkips skipped %d, %d banned sites ahead of position %d", skipped, ahead, at)
	}
	return at
}

// The index must agree with the reference linear scan after every
// mutation, for arbitrary load states and ban sets: pick == pickScan is
// the exact "least-filled allowable site" contract of Figure 3, and the
// re-key after each placement must leave the order what a rebuild from
// the system would give.
func TestSiteIndexMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		p := 1 + r.Intn(40)
		sys := resource.NewSystem(p, 3, resource.MustOverlap(0.5))
		// Random pre-load (rooted placements happen before the index is
		// built); every third trial starts empty, the shape reset leaves
		// unsorted.
		if trial%3 != 0 {
			for j := 0; j < p; j++ {
				for n := r.Intn(3); n > 0; n-- {
					sys.Site(j).Assign(vector.Of(r.Float64(), r.Float64(), r.Float64()))
				}
			}
		}
		ix := newSiteIndex(sys)
		checkIndex(t, ix, sys)
		for step := 0; step < 60; step++ {
			bans := make([]bool, p)
			for n := r.Intn(p); n > 0; n-- {
				bans[r.Intn(p)] = true
			}
			at := pickChecked(t, ix, sys, bans)
			if at < 0 {
				continue // every site banned
			}
			// A small component alphabet on every other trial, so keys
			// tie on l, on (l, sum), and updates land between equals.
			w := vector.Of(r.Float64()*5, r.Float64()*5, r.Float64()*5)
			if trial%2 == 1 {
				w = vector.Of(float64(r.Intn(3)), float64(r.Intn(3)), float64(r.Intn(3)))
			}
			sys.Site(ix.order[at].id).Assign(w)
			ix.update(sys, at)
			checkIndex(t, ix, sys)
			if !reflect.DeepEqual(ix.order, newSiteIndex(sys).order) {
				t.Fatalf("trial %d step %d: order after update differs from a rebuild", trial, step)
			}
		}
	}
}

// The corners of the position-returning API, one by one.
func TestSiteIndexCorners(t *testing.T) {
	ov := resource.MustOverlap(0.5)

	// P = 1: the only site is position 0 and stays there.
	sys := resource.NewSystem(1, 2, ov)
	ix := newSiteIndex(sys)
	if at := pickChecked(t, ix, sys, []bool{false}); at != 0 {
		t.Fatalf("P=1: pick = %d, want 0", at)
	}
	sys.Site(0).Assign(vector.Of(3, 1))
	ix.update(sys, 0)
	checkIndex(t, ix, sys)
	if at := pickChecked(t, ix, sys, []bool{true}); at != -1 {
		t.Fatalf("P=1 banned: pick = %d, want -1", at)
	}

	// An all-banned prefix: the walk passes every banned site and stops
	// at the first allowed one, however far back.
	sys = resource.NewSystem(6, 2, ov)
	for j := 0; j < 6; j++ {
		sys.Site(j).Assign(vector.Of(float64(j), 0))
	}
	ix = newSiteIndex(sys)
	bans := []bool{true, true, true, true, false, true}
	if at := pickChecked(t, ix, sys, bans); at != 4 || ix.order[at].id != 4 {
		t.Fatalf("banned prefix: pick = %d, want position 4 (site 4)", at)
	}
	// Growing site 4 past site 5 moves exactly one neighbour up.
	sys.Site(4).Assign(vector.Of(2, 0))
	ix.update(sys, 4)
	checkIndex(t, ix, sys)
	if ix.order[4].id != 5 || ix.order[5].id != 4 {
		t.Fatalf("after update: tail = sites %d, %d, want 5, 4", ix.order[4].id, ix.order[5].id)
	}

	// A zero work vector leaves the key, and so the site's slot, as it
	// was — at the front, in the middle and at the back.
	for _, at := range []int{0, 3, 5} {
		before := append([]siteKey(nil), ix.order...)
		sys.Site(ix.order[at].id).Assign(vector.Of(0, 0))
		ix.update(sys, at)
		checkIndex(t, ix, sys)
		if !reflect.DeepEqual(ix.order, before) {
			t.Fatalf("zero-vector update at %d moved the order: %v -> %v", at, before, ix.order)
		}
	}

	// The grown key ties the next site on (l, sum): id decides, so the
	// lower id stays in front.
	sys = resource.NewSystem(3, 2, ov)
	sys.Site(1).Assign(vector.Of(1, 1))
	sys.Site(2).Assign(vector.Of(2, 2))
	ix = newSiteIndex(sys)
	sys.Site(0).Assign(vector.Of(1, 1))
	ix.update(sys, 0)
	checkIndex(t, ix, sys)
	if ix.order[0].id != 0 || ix.order[1].id != 1 {
		t.Fatalf("equal (l, sum): front = sites %d, %d, want 0, 1", ix.order[0].id, ix.order[1].id)
	}
}

// With every site banned, both the index and the scan report failure.
func TestSiteIndexAllBanned(t *testing.T) {
	sys := resource.NewSystem(3, 2, resource.MustOverlap(1))
	ix := newSiteIndex(sys)
	bans := []bool{true, true, true}
	if got := ix.pick(bans); got != -1 {
		t.Fatalf("pick over full ban set = %d, want -1", got)
	}
	if got := pickScan(sys, bans); got != -1 {
		t.Fatalf("scan over full ban set = %d, want -1", got)
	}
}

// scheduleByScan is the Figure 3 rule written the naive way — rooted
// clones first, then the floating list in (l desc, op ID, clone) order,
// each clone on whatever pickScan says — with none of
// operatorSchedule's scratch or index machinery.
func scheduleByScan(p, d int, ov resource.Overlap, ops []*Op) (map[int][]int, float64) {
	sys := resource.NewSystem(p, d, ov)
	sites := make(map[int][]int, len(ops))
	bans := make(map[int][]bool, len(ops))
	type clone struct {
		op  *Op
		k   int
		len float64
	}
	var list []clone
	for _, op := range ops {
		sites[op.ID] = make([]int, len(op.Clones))
		for k, w := range op.Clones {
			if op.Rooted() {
				sys.Site(op.Home[k]).Assign(w)
				sites[op.ID][k] = op.Home[k]
				continue
			}
			list = append(list, clone{op, k, w.Length()})
		}
		bans[op.ID] = make([]bool, p)
	}
	sort.Slice(list, func(i, j int) bool {
		a, b := list[i], list[j]
		if a.len != b.len {
			return a.len > b.len
		}
		if a.op.ID != b.op.ID {
			return a.op.ID < b.op.ID
		}
		return a.k < b.k
	})
	for _, c := range list {
		s := pickScan(sys, bans[c.op.ID])
		sys.Site(s).Assign(c.op.Clones[c.k])
		bans[c.op.ID][s] = true
		sites[c.op.ID][c.k] = s
	}
	return sites, sys.MaxTSite()
}

// Whole-run check at large P, with rooted operators in the mix: the
// indexed placement loop and the naive scan loop assign every clone to
// the same site and report the same response.
func TestOperatorScheduleMatchesScanLargeP(t *testing.T) {
	for _, p := range []int{256, 384, 512} {
		r := rand.New(rand.NewSource(int64(p)))
		ops := randomOps(r, 40, 64, 3)
		// Root a few operators at random distinct sites.
		for i := 0; i < 5; i++ {
			op := ops[i*7]
			perm := r.Perm(p)
			op.Home = append([]int(nil), perm[:len(op.Clones)]...)
		}
		got, err := OperatorSchedule(p, 3, ov(0.5), ops)
		if err != nil {
			t.Fatal(err)
		}
		wantSites, wantResp := scheduleByScan(p, 3, ov(0.5), ops)
		if got.Response != wantResp {
			t.Fatalf("P=%d: response %g != scan's %g", p, got.Response, wantResp)
		}
		if !reflect.DeepEqual(got.Sites, wantSites) {
			t.Fatalf("P=%d: site assignment differs from the scan's", p)
		}
	}
}

// Exactly-tied loads must break deterministically on (l, sum, site):
// identical single-clone operators fill sites in index order, and once
// every site carries the same load the cycle restarts at site 0. This is
// the regression test for the old ±tieEps comparison, whose asymmetric
// window could let a near-tie chain pick a site up to tieEps above the
// true minimum and had no explicit site-index tie-break.
func TestPlacementExactTieBreaksOnSiteIndex(t *testing.T) {
	var ops []*Op
	for i := 0; i < 7; i++ {
		ops = append(ops, &Op{ID: i, Clones: []vector.Vector{vector.Of(1, 1)}})
	}
	res, err := OperatorSchedule(3, 2, resource.MustOverlap(0.5), ops)
	if err != nil {
		t.Fatal(err)
	}
	// l(w̄) is equal for all clones, so list order is operator ID order.
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i, w := range want {
		if got := res.Sites[i][0]; got != w {
			t.Fatalf("op %d placed at site %d, want %d (exact-tie rotation)", i, got, w)
		}
	}
	// Ties on l alone defer to the smaller total load: a site already
	// holding complementary work (same l, larger sum) loses to a lighter
	// site with an equal maximum component.
	tieOps := []*Op{
		{ID: 0, Clones: []vector.Vector{vector.Of(2, 0)}, Home: []int{0}},
		{ID: 1, Clones: []vector.Vector{vector.Of(2, 2)}, Home: []int{1}},
		{ID: 2, Clones: []vector.Vector{vector.Of(1, 1)}},
	}
	res, err = OperatorSchedule(2, 2, resource.MustOverlap(0.5), tieOps)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Sites[2][0]; got != 0 {
		t.Fatalf("op 2 placed at site %d, want 0 (l tie 2=2, sum 2 < 4)", got)
	}
}

// LowerBound must tolerate input that OperatorSchedule's validation
// rejects rather than dereferencing Clones[0] blindly.
func TestLowerBoundMalformedInput(t *testing.T) {
	ov := resource.MustOverlap(0.5)
	if got := LowerBound(4, ov, []*Op{{ID: 0}}); got != 0 {
		t.Fatalf("LB(op with no clones) = %g, want 0", got)
	}
	if got := LowerBound(4, ov, []*Op{{ID: 0}, {ID: 1}}); got != 0 {
		t.Fatalf("LB(only empty ops) = %g, want 0", got)
	}
	if got := LowerBound(0, ov, []*Op{singleClone(0, 1, 1)}); got != 0 {
		t.Fatalf("LB(P = 0) = %g, want 0", got)
	}
	// A zero-clone operator among real ones is skipped, not fatal, and
	// does not perturb the bound.
	ops := []*Op{singleClone(0, 4, 0), {ID: 1}, singleClone(2, 0, 4)}
	clean := []*Op{singleClone(0, 4, 0), singleClone(2, 0, 4)}
	if got, want := LowerBound(2, ov, ops), LowerBound(2, ov, clean); got != want {
		t.Fatalf("LB with empty op mixed in = %g, want %g", got, want)
	}
}

// Mixed-dimension clone vectors used to reach vector.AddInPlace, whose
// mustMatch panics — violating LowerBound's documented "contribute a
// bound of 0 instead of panicking" contract. Mismatched vectors must be
// skipped in both the congestion term and h(N).
func TestLowerBoundMixedDimensionClones(t *testing.T) {
	ov := resource.MustOverlap(0.5)

	// A 2-dimensional clone among 3-dimensional ones: skipped entirely.
	mixed := []*Op{
		{ID: 0, Clones: []vector.Vector{{4, 0, 0}}},
		{ID: 1, Clones: []vector.Vector{{1, 2}}}, // wrong dimension
		{ID: 2, Clones: []vector.Vector{{0, 0, 4}}},
	}
	clean := []*Op{
		{ID: 0, Clones: []vector.Vector{{4, 0, 0}}},
		{ID: 2, Clones: []vector.Vector{{0, 0, 4}}},
	}
	got := LowerBound(2, ov, mixed)
	if want := LowerBound(2, ov, clean); got != want {
		t.Fatalf("LB with mismatched clone mixed in = %g, want %g", got, want)
	}

	// A mismatch inside one operator's own clone list: the bad clone is
	// skipped, the matching clones still count.
	intra := []*Op{
		{ID: 0, Clones: []vector.Vector{{4, 0, 0}, {9, 9}, {0, 0, 4}}},
	}
	intraClean := []*Op{
		{ID: 0, Clones: []vector.Vector{{4, 0, 0}, {0, 0, 4}}},
	}
	if got, want := LowerBound(2, ov, intra), LowerBound(2, ov, intraClean); got != want {
		t.Fatalf("LB with intra-op mismatch = %g, want %g", got, want)
	}

	// A leading zero-dimension vector must not poison the reference
	// dimensionality: the first positive-dimension clone sets d.
	leadingEmpty := []*Op{
		{ID: 0, Clones: []vector.Vector{{}}},
		{ID: 1, Clones: []vector.Vector{{4, 0, 0}}},
	}
	if got, want := LowerBound(2, ov, leadingEmpty),
		LowerBound(2, ov, []*Op{{ID: 1, Clones: []vector.Vector{{4, 0, 0}}}}); got != want {
		t.Fatalf("LB with leading empty vector = %g, want %g", got, want)
	}

	// All-mismatched input degrades to 0, never a panic.
	if got := LowerBound(2, ov, []*Op{{ID: 0, Clones: []vector.Vector{{}}}}); got != 0 {
		t.Fatalf("LB(zero-dimension clones) = %g, want 0", got)
	}
}
