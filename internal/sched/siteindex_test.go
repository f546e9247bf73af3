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

// The index must agree with the reference linear scan after every
// mutation, for arbitrary load states and ban sets: pick == pickScan is
// the exact "least-filled allowable site" contract of Figure 3.
func TestSiteIndexMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		p := 1 + r.Intn(40)
		sys := resource.NewSystem(p, 3, resource.MustOverlap(0.5))
		// Random pre-load (rooted placements happen before the index is
		// built).
		for j := 0; j < p; j++ {
			for n := r.Intn(3); n > 0; n-- {
				sys.Site(j).Assign(vector.Of(r.Float64(), r.Float64(), r.Float64()))
			}
		}
		ix := newSiteIndex(sys)
		for step := 0; step < 60; step++ {
			bans := make([]bool, p)
			for n := r.Intn(p); n > 0; n-- {
				bans[r.Intn(p)] = true
			}
			got, want := ix.pick(bans), pickScan(sys, bans)
			if got != want {
				t.Fatalf("trial %d step %d: pick = %d, scan = %d (bans %v)",
					trial, step, got, want, bans)
			}
			if got < 0 {
				continue // every site banned
			}
			sys.Site(got).Assign(vector.Of(r.Float64()*5, r.Float64()*5, r.Float64()*5))
			ix.update(sys, got)
			// The pos table must stay the inverse of the order slice.
			for i, k := range ix.order {
				if ix.pos[k.id] != i {
					t.Fatalf("trial %d step %d: pos[%d] = %d, want %d",
						trial, step, k.id, ix.pos[k.id], i)
				}
			}
		}
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
