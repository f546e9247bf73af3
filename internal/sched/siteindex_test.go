package sched

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mdrs/internal/obs"
	"mdrs/internal/resource"
	"mdrs/internal/vector"
)

// newSiteIndex builds a standalone index over the system's current
// loads; production code reuses the scratch's through reset.
func newSiteIndex(sys *resource.System) *siteIndex {
	return new(siteIndex).reset(sys)
}

// pick, pickSkips and update are the clone-by-clone index production
// placed with before runs became the unit (PR 25): a pick and a re-key
// per clone. They are kept verbatim as the oracle of the run walk and
// rekey — sites, response and the full decision trace
// (scheduleByClone).

// pick returns the position in order of the least-key site whose id is
// not banned, or -1 if the ban set covers every site. The ban set is a
// site-indexed []bool row of the scratch's flattened matrix.
func (ix *siteIndex) pick(bans []bool) int {
	for i, k := range ix.order {
		if !bans[k.id] {
			return i
		}
	}
	return -1
}

// pickSkips is pick plus the number of better-keyed sites the walk
// skipped because the ban set held them — the "ban-set hit" count of
// the decision trace. Kept separate from pick so the untraced hot path
// does not carry the extra counter.
func (ix *siteIndex) pickSkips(bans []bool) (i, skipped int) {
	for j, k := range ix.order {
		if bans[k.id] {
			skipped++
			continue
		}
		return j, skipped
	}
	return -1, skipped
}

// update re-keys the site at position i of order after new work was
// assigned to it. The key can only have grown, so its slot is at or
// behind i: a binary search over order[i+1:] counts the sites it now
// follows, and one copy moves them up over the old slot.
func (ix *siteIndex) update(sys *resource.System, i int) {
	id := ix.order[i].id
	k := siteKey{l: sys.LoadLength(id), sum: sys.LoadSum(id), id: id}
	rest := ix.order[i+1:]
	lo, hi := 0, len(rest)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keyLess(rest[mid], k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	copy(ix.order[i:], rest[:lo])
	ix.order[i+lo] = k
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
		k := siteKey{l: sys.LoadLength(j), sum: sys.LoadSum(j), id: j}
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
		if l, sum := sys.LoadLength(k.id), sys.LoadSum(k.id); k.l != l || k.sum != sum {
			t.Fatalf("order[%d] = %+v, site %d carries (%g, %g)", i, k, k.id, l, sum)
		}
		if i > 0 && !keyLess(ix.order[i-1], k) {
			t.Fatalf("order[%d] = %+v not above order[%d] = %+v", i, k, i-1, ix.order[i-1])
		}
	}
}

// placeRun places one run of clones the way operatorSchedule does —
// the first len(ws) unbanned positions of the order in one walk, each
// pick held to pickScan over the bans plus the run's earlier picks, then
// one rekey — and holds the index to its invariants afterwards: order
// strictly ascending, each site once, every key the site's load, equal
// to a rebuild, and exactly the picked sites newly banned. It returns
// the sites the run took.
func placeRun(t *testing.T, ix *siteIndex, sys *resource.System, bans []bool, ws []vector.Vector) []int {
	t.Helper()
	want := append([]bool(nil), bans...)
	grown := ix.grown[:0]
	at := 0
	var sites []int
	for _, w := range ws {
		for at < len(ix.order) && bans[ix.order[at].id] {
			at++
		}
		if at == len(ix.order) {
			t.Fatalf("run of %d clones: no unbanned site left after %d", len(ws), len(sites))
		}
		id := ix.order[at].id
		if scan := pickScan(sys, want); id != scan {
			t.Fatalf("clone %d of the run: walk took site %d, scan %d", len(sites), id, scan)
		}
		want[id] = true
		sys.Assign(id, w)
		grown = append(grown, siteKey{l: sys.LoadLength(id), sum: sys.LoadSum(id), id: id})
		sites = append(sites, id)
		at++
	}
	ix.rekey(at-1, grown, bans)
	checkIndex(t, ix, sys)
	if !reflect.DeepEqual(ix.order, newSiteIndex(sys).order) {
		t.Fatalf("run %v: order after rekey differs from a rebuild", sites)
	}
	if !reflect.DeepEqual(bans, want) {
		t.Fatalf("run %v: rekey left bans %v, want %v", sites, bans, want)
	}
	return sites
}

// The run walk must take what the reference linear scan takes clone by
// clone, and rekey must leave the order a rebuild from the system would
// give, for arbitrary load states, ban sets and run lengths — up to
// every unbanned site — with equal and with different vectors.
func TestSiteIndexMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		p := 1 + r.Intn(40)
		sys := resource.NewSystem(p, 3, resource.MustOverlap(0.5))
		// Random pre-load (rooted placements happen before the index is
		// built); every third trial starts empty, the shape reset leaves
		// unsorted.
		if trial%3 != 0 {
			for j := 0; j < p; j++ {
				for n := r.Intn(3); n > 0; n-- {
					sys.Assign(j, vector.Of(r.Float64(), r.Float64(), r.Float64()))
				}
			}
		}
		ix := newSiteIndex(sys)
		checkIndex(t, ix, sys)
		// Trial kinds by trial%3: wide random vectors; a small component
		// alphabet, so keys tie on l and on (l, sum) and grown keys land
		// between equals; vectors tiny beside the loads, so the run's
		// early picks still sort ahead of its later ones.
		vec := func() vector.Vector {
			switch trial % 3 {
			case 1:
				return vector.Of(float64(r.Intn(3)), float64(r.Intn(3)), float64(r.Intn(3)))
			case 2:
				return vector.Of(r.Float64()/64, r.Float64()/64, r.Float64()/64)
			}
			return vector.Of(r.Float64()*5, r.Float64()*5, r.Float64()*5)
		}
		for step := 0; step < 40; step++ {
			bans := make([]bool, p)
			for n := r.Intn(p); n > 0; n-- {
				bans[r.Intn(p)] = true
			}
			free := 0
			for _, b := range bans {
				if !b {
					free++
				}
			}
			if free == 0 {
				continue
			}
			// EA1 runs repeat one vector; every fourth run mixes them.
			ws := make([]vector.Vector, 1+r.Intn(free))
			w := vec()
			for k := range ws {
				if step%4 == 3 {
					w = vec()
				}
				ws[k] = w
			}
			placeRun(t, ix, sys, bans, ws)
		}
	}
}

// The corners of the walk and the merge, one by one.
func TestSiteIndexCorners(t *testing.T) {
	ov := resource.MustOverlap(0.5)
	order := func(ix *siteIndex) []int {
		ids := make([]int, len(ix.order))
		for i, k := range ix.order {
			ids[i] = k.id
		}
		return ids
	}

	// P = 1: the only site is position 0 and stays there.
	sys := resource.NewSystem(1, 2, ov)
	ix := newSiteIndex(sys)
	if got := placeRun(t, ix, sys, []bool{false}, vecs([]float64{3, 1})); got[0] != 0 {
		t.Fatalf("P=1: run took site %d, want 0", got[0])
	}

	// An all-banned prefix: the walk passes every banned site and stops
	// at the first allowed one, however far back; growing site 4 past
	// site 5 moves exactly one neighbour up.
	sys = resource.NewSystem(6, 2, ov)
	for j := 0; j < 6; j++ {
		sys.Assign(j, vector.Of(float64(j), 0))
	}
	ix = newSiteIndex(sys)
	placeRun(t, ix, sys, []bool{true, true, true, true, false, true}, vecs([]float64{2, 0}))
	if got := order(ix); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 5, 4}) {
		t.Fatalf("after a run of one: order %v, want tail 5, 4", got)
	}

	// A run interleaved with banned sites, every grown key past the
	// window: the banned sites close up in order and the picks follow,
	// sorted by their new keys (site 0 grew most).
	sys = resource.NewSystem(6, 2, ov)
	for j := 0; j < 6; j++ {
		sys.Assign(j, vector.Of(float64(j), 0))
	}
	ix = newSiteIndex(sys)
	got := placeRun(t, ix, sys, []bool{false, true, false, true, false, false},
		vecs([]float64{20, 0}, []float64{10, 0}, []float64{10, 0}))
	if !reflect.DeepEqual(got, []int{0, 2, 4}) {
		t.Fatalf("interleaved run took %v, want [0 2 4]", got)
	}
	if got := order(ix); !reflect.DeepEqual(got, []int{1, 3, 5, 2, 4, 0}) {
		t.Fatalf("after an interleaved run: order %v, want [1 3 5 2 4 0]", got)
	}

	// Zero work vectors leave every key, and so every slot, as it was.
	before := order(ix)
	placeRun(t, ix, sys, make([]bool, 6), vecs([]float64{0, 0}, []float64{0, 0}, []float64{0, 0}))
	if got := order(ix); !reflect.DeepEqual(got, before) {
		t.Fatalf("zero-vector run moved the order: %v -> %v", before, got)
	}

	// A run over every site (degree = P): the whole order is the window.
	placeRun(t, ix, sys, make([]bool, 6), repeated(6, []float64{1, 7}, []float64{1, 7}))

	// The grown key ties the next site on (l, sum): id decides, so the
	// lower id stays in front.
	sys = resource.NewSystem(3, 2, ov)
	sys.Assign(1, vector.Of(1, 1))
	sys.Assign(2, vector.Of(2, 2))
	ix = newSiteIndex(sys)
	placeRun(t, ix, sys, make([]bool, 3), vecs([]float64{1, 1}))
	if got := order(ix); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("equal (l, sum): order %v, want [0 1 2]", got)
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
				sys.Assign(op.Home[k], w)
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
		sys.Assign(s, c.op.Clones[c.k])
		bans[c.op.ID][s] = true
		sites[c.op.ID][c.k] = s
	}
	return sites, sys.MaxTSite()
}

// scheduleByClone is operatorSchedule as it was before runs became the
// unit, recorder included: the rooted pass, then L clone by clone in
// (l desc, op ID, clone) order — or arrival order when !sorted — each
// through pick (pickSkips when traced) and update. Its event stream is
// the one the run walk must reproduce.
func scheduleByClone(p, d int, ov resource.Overlap, ops []*Op, sorted bool, rec obs.Recorder) (map[int][]int, float64) {
	sys := resource.NewSystem(p, d, ov)
	sites := make(map[int][]int, len(ops))
	bans := make(map[int][]bool, len(ops))
	type clone struct {
		op  *Op
		k   int
		len float64
	}
	var list []clone
	floating, rooted := 0, 0
	for _, op := range ops {
		sites[op.ID] = make([]int, len(op.Clones))
		bans[op.ID] = make([]bool, p)
		for k, w := range op.Clones {
			if !op.Rooted() {
				list = append(list, clone{op, k, w.Length()})
				floating++
				continue
			}
			h := op.Home[k]
			if rec != nil {
				rec.Event(obs.Event{
					Type: obs.EvPlace, Op: op.ID, Clone: k, Site: h,
					Rooted: true, L: sys.LoadLength(h), Sum: sys.LoadSum(h),
				})
			}
			sys.Assign(h, w)
			sites[op.ID][k] = op.Home[k]
			rooted++
		}
	}
	if sorted {
		sort.SliceStable(list, func(i, j int) bool {
			a, b := list[i], list[j]
			if a.len != b.len {
				return a.len > b.len
			}
			return a.op.ID < b.op.ID // clones of one operator stay in index order
		})
	}
	ix := newSiteIndex(sys)
	for _, c := range list {
		var at, skipped int
		if rec == nil {
			at = ix.pick(bans[c.op.ID])
		} else {
			at, skipped = ix.pickSkips(bans[c.op.ID])
		}
		if rec != nil && skipped > 0 {
			rec.Count("sched.ban_hits", int64(skipped))
			rec.Event(obs.Event{Type: obs.EvBanHit, Op: c.op.ID, Clone: c.k, Banned: skipped})
		}
		best := ix.order[at].id
		if rec != nil {
			rec.Event(obs.Event{
				Type: obs.EvPlace, Op: c.op.ID, Clone: c.k,
				Site: best, L: sys.LoadLength(best), Sum: sys.LoadSum(best),
			})
		}
		sys.Assign(best, c.op.Clones[c.k])
		ix.update(sys, at)
		bans[c.op.ID][best] = true
		sites[c.op.ID][c.k] = best
	}
	response := sys.MaxTSite()
	if rec != nil {
		rec.Count("sched.ops", int64(len(ops)))
		rec.Count("sched.clones_floating", int64(floating))
		rec.Count("sched.clones_rooted", int64(rooted))
		rec.Observe("sched.phase_response", response)
	}
	return sites, response
}

// checkAgainstCloneIndex holds operatorSchedule, traced and untraced, to
// scheduleByClone: the same sites and response, the same counters, and
// the same decision trace event for event — every ban-hit count and the
// (l, sum) every place event read.
func checkAgainstCloneIndex(t *testing.T, p, d int, ops []*Op, sorted bool) {
	t.Helper()
	o := ov(0.5)
	wantCap, wantMet := obs.NewCapture(), obs.NewMetrics()
	wantSites, wantResp := scheduleByClone(p, d, o, ops, sorted, obs.Multi(wantCap, wantMet))
	gotCap, gotMet := obs.NewCapture(), obs.NewMetrics()
	for _, rec := range []obs.Recorder{nil, obs.Multi(gotCap, gotMet)} {
		got, err := operatorSchedule(context.Background(), p, d, o, ops, sorted, rec, 0)
		if err != nil {
			t.Fatalf("sorted %v, traced %v: %v", sorted, rec != nil, err)
		}
		if !reflect.DeepEqual(got.Sites, wantSites) || got.Response != wantResp {
			t.Fatalf("sorted %v, traced %v: sites %v response %g, clone-by-clone index %v %g",
				sorted, rec != nil, got.Sites, got.Response, wantSites, wantResp)
		}
	}
	got, want := gotCap.Events(), wantCap.Events()
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("sorted %v: event %d is %+v, clone-by-clone index %+v", sorted, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("sorted %v: %d events, clone-by-clone index %d", sorted, len(got), len(want))
	}
	if g, w := gotMet.Snapshot().Counters, wantMet.Snapshot().Counters; !reflect.DeepEqual(g, w) {
		t.Fatalf("sorted %v: counters %v, clone-by-clone index %v", sorted, g, w)
	}
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
