package sched

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mdrs/internal/resource"
	"mdrs/internal/vector"
)

func ov(eps float64) resource.Overlap { return resource.MustOverlap(eps) }

func singleClone(id int, w ...float64) *Op {
	return &Op{ID: id, Clones: []vector.Vector{vector.Of(w...)}}
}

func TestOperatorScheduleArgumentValidation(t *testing.T) {
	good := []*Op{singleClone(0, 1, 1)}
	if _, err := OperatorSchedule(0, 2, ov(0.5), good); err == nil {
		t.Error("P = 0 accepted")
	}
	if _, err := OperatorSchedule(2, 0, ov(0.5), good); err == nil {
		t.Error("d = 0 accepted")
	}
	cases := []struct {
		name string
		ops  []*Op
	}{
		{"duplicate IDs", []*Op{singleClone(1, 1, 1), singleClone(1, 2, 2)}},
		{"no clones", []*Op{{ID: 0}}},
		{"degree > P", []*Op{{ID: 0, Clones: []vector.Vector{
			vector.Of(1, 1), vector.Of(1, 1), vector.Of(1, 1)}}}},
		{"negative clone component", []*Op{singleClone(0, -1, 1)}},
		{"dim mismatch", []*Op{singleClone(0, 1, 1, 1)}},
		{"home wrong length", []*Op{{ID: 0,
			Clones: []vector.Vector{vector.Of(1, 1)}, Home: []int{0, 1}}}},
		{"home out of range", []*Op{{ID: 0,
			Clones: []vector.Vector{vector.Of(1, 1)}, Home: []int{5}}}},
		{"home negative", []*Op{{ID: 0,
			Clones: []vector.Vector{vector.Of(1, 1)}, Home: []int{-1}}}},
		{"home duplicate site", []*Op{{ID: 0,
			Clones: []vector.Vector{vector.Of(1, 1), vector.Of(1, 1)}, Home: []int{1, 1}}}},
	}
	for _, c := range cases {
		if _, err := OperatorSchedule(2, 2, ov(0.5), c.ops); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestOperatorScheduleEmpty(t *testing.T) {
	res, err := OperatorSchedule(3, 2, ov(0.5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Response != 0 || len(res.Sites) != 0 {
		t.Fatalf("empty schedule: response %g, sites %v", res.Response, res.Sites)
	}
}

func TestOperatorScheduleSpreadsLoad(t *testing.T) {
	// Four equal single-clone operators on four sites: one each.
	var ops []*Op
	for i := 0; i < 4; i++ {
		ops = append(ops, singleClone(i, 2, 1))
	}
	res, err := OperatorSchedule(4, 2, ov(1), ops)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for id := 0; id < 4; id++ {
		s := res.Sites[id][0]
		if seen[s] {
			t.Fatalf("two operators packed on site %d with empty sites available", s)
		}
		seen[s] = true
	}
	if math.Abs(res.Response-2) > 1e-12 {
		t.Fatalf("response = %g, want 2", res.Response)
	}
}

func TestOperatorScheduleResourceComplementarity(t *testing.T) {
	// The heart of multi-dimensional scheduling: a CPU-bound and an
	// IO-bound operator share one site perfectly (paper Section 5.2.2).
	// Two CPU-heavy [10 0] and two disk-heavy [0 10] single-clone ops on
	// two sites under perfect overlap must co-locate complementary pairs
	// for a response of 10.
	ops := []*Op{
		singleClone(0, 10, 0),
		singleClone(1, 10, 0),
		singleClone(2, 0, 10),
		singleClone(3, 0, 10),
	}
	res, err := OperatorSchedule(2, 2, ov(1), ops)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Response-10) > 1e-12 {
		t.Fatalf("response = %g, want 10 (complementary packing)", res.Response)
	}
	if res.Sites[0][0] == res.Sites[1][0] {
		t.Fatal("both CPU-bound operators share a site")
	}
}

func TestOperatorScheduleNoTwoClonesShareSite(t *testing.T) {
	op := &Op{ID: 7, Clones: []vector.Vector{
		vector.Of(1, 1), vector.Of(1, 1), vector.Of(1, 1),
	}}
	res, err := OperatorSchedule(3, 2, ov(0.5), []*Op{op})
	if err != nil {
		t.Fatal(err)
	}
	sites := res.Sites[7]
	if sites[0] == sites[1] || sites[0] == sites[2] || sites[1] == sites[2] {
		t.Fatalf("clones share sites: %v", sites)
	}
}

func TestOperatorScheduleRootedStayHome(t *testing.T) {
	rooted := &Op{
		ID:     0,
		Clones: []vector.Vector{vector.Of(5, 5), vector.Of(5, 5)},
		Home:   []int{2, 0},
	}
	floating := singleClone(1, 1, 1)
	res, err := OperatorSchedule(3, 2, ov(0.5), []*Op{rooted, floating})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Sites[0], []int{2, 0}) {
		t.Fatalf("rooted op moved: %v", res.Sites[0])
	}
	// The floating op must land on the empty site 1.
	if res.Sites[1][0] != 1 {
		t.Fatalf("floating op at site %d, want the least-loaded site 1", res.Sites[1][0])
	}
}

func TestOperatorScheduleAvoidsRootedHotspot(t *testing.T) {
	// Site 0 is pre-loaded by a rooted operator; floating clones must
	// prefer the other sites first.
	rooted := &Op{ID: 0, Clones: []vector.Vector{vector.Of(100, 100)}, Home: []int{0}}
	f1 := singleClone(1, 1, 2)
	f2 := singleClone(2, 2, 1)
	res, err := OperatorSchedule(3, 2, ov(0.5), []*Op{rooted, f1, f2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sites[1][0] == 0 || res.Sites[2][0] == 0 {
		t.Fatal("floating clone placed on the hotspot site")
	}
}

func TestOperatorScheduleLPTOrder(t *testing.T) {
	// One big vector and two small ones on two sites: the big one is
	// placed first (non-increasing l(w̄)), so the two small ones pair on
	// the other site. Greedy in arrival order would split the small ones.
	ops := []*Op{
		singleClone(0, 1, 0),
		singleClone(1, 1, 0),
		singleClone(2, 3, 0),
	}
	res, err := OperatorSchedule(2, 2, ov(1), ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sites[0][0] != res.Sites[1][0] {
		t.Fatal("small operators not paired — list order ignored")
	}
	if res.Sites[2][0] == res.Sites[0][0] {
		t.Fatal("big operator shares site with small ones")
	}
	if math.Abs(res.Response-3) > 1e-12 {
		t.Fatalf("response = %g, want 3", res.Response)
	}
}

func TestOperatorScheduleDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	ops := randomOps(r, 8, 5, 3)
	r1, err := OperatorSchedule(5, 3, ov(0.4), ops)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := OperatorSchedule(5, 3, ov(0.4), ops)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Sites, r2.Sites) || r1.Response != r2.Response {
		t.Fatal("OperatorSchedule is not deterministic")
	}
}

func TestResponseMatchesManualRecomputation(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	ops := randomOps(r, 6, 4, 2)
	o := ov(0.3)
	res, err := OperatorSchedule(4, 2, o, ops)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute Equation 3 from scratch.
	siteClones := map[int][]vector.Vector{}
	for _, op := range ops {
		for k, s := range res.Sites[op.ID] {
			siteClones[s] = append(siteClones[s], op.Clones[k])
		}
	}
	want := 0.0
	for _, clones := range siteClones {
		maxSeq := 0.0
		for _, w := range clones {
			if ts := o.TSeq(w); ts > maxSeq {
				maxSeq = ts
			}
		}
		tSite := math.Max(maxSeq, vector.SetLength(clones))
		if tSite > want {
			want = tSite
		}
	}
	if math.Abs(res.Response-want) > 1e-9 {
		t.Fatalf("response %g != manual %g", res.Response, want)
	}
}

func TestLowerBoundHandExample(t *testing.T) {
	// Two 1-clone ops [4 0] and [0 4] on 2 sites, ε = 1:
	// l(S) = 4, l(S)/P = 2; h = max TSeq = 4 → LB = 4.
	ops := []*Op{singleClone(0, 4, 0), singleClone(1, 0, 4)}
	if got := LowerBound(2, ov(1), ops); math.Abs(got-4) > 1e-12 {
		t.Fatalf("LB = %g, want 4", got)
	}
	// With ε = 0, TSeq = sum = 4 still; congestion bound unchanged.
	// Four copies of [4 0]: l(S) = 16, /2 = 8 > h = 4 → LB = 8.
	ops4 := []*Op{singleClone(0, 4, 0), singleClone(1, 4, 0),
		singleClone(2, 4, 0), singleClone(3, 4, 0)}
	if got := LowerBound(2, ov(1), ops4); math.Abs(got-8) > 1e-12 {
		t.Fatalf("LB = %g, want 8", got)
	}
	if got := LowerBound(2, ov(1), nil); got != 0 {
		t.Fatalf("LB(empty) = %g, want 0", got)
	}
}

func TestRatioBoundFormulas(t *testing.T) {
	if PerformanceRatioBound(3) != 7 {
		t.Errorf("2d+1 for d=3 = %g, want 7", PerformanceRatioBound(3))
	}
	if got := CoarseGrainRatioBound(3, 0.7); math.Abs(got-(2*3*(0.7*3+1)+1)) > 1e-12 {
		t.Errorf("CG bound = %g", got)
	}
}

// randomOps builds m floating operators with random degrees up to p and
// random d-dimensional clone vectors.
func randomOps(r *rand.Rand, m, p, d int) []*Op {
	ops := make([]*Op, m)
	for i := range ops {
		n := 1 + r.Intn(p)
		clones := make([]vector.Vector, n)
		for k := range clones {
			w := vector.New(d)
			for j := range w {
				w[j] = r.Float64() * 10
			}
			clones[k] = w
		}
		ops[i] = &Op{ID: i, Clones: clones}
	}
	return ops
}

// Property: the schedule always satisfies Definition 5.1 (no two clones
// of one operator on a site), places every clone, and its makespan lies
// in [LB, (2d+1)·LB] — the inequality underlying Theorem 5.1(a).
func TestQuickScheduleInvariantsAndBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := 1 + r.Intn(12)
		d := 1 + r.Intn(4)
		m := 1 + r.Intn(10)
		o := ov(r.Float64())
		ops := randomOps(r, m, p, d)

		res, err := OperatorSchedule(p, d, o, ops)
		if err != nil {
			return false
		}
		for _, op := range ops {
			sites := res.Sites[op.ID]
			if len(sites) != len(op.Clones) {
				return false
			}
			seen := map[int]bool{}
			for _, s := range sites {
				if s < 0 || s >= p || seen[s] {
					return false
				}
				seen[s] = true
			}
		}
		lb := LowerBound(p, o, ops)
		bound := PerformanceRatioBound(d) * lb
		return res.Response >= lb-1e-9 && res.Response <= bound+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: with rooted operators mixed in, rooted clones never move and
// all invariants still hold. (The LB of Section 7 covers floating
// parallelization; with rooted hotspots the schedule may exceed
// (2d+1)·LB, so only feasibility is asserted here.)
func TestQuickRootedFeasibility(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := 2 + r.Intn(10)
		d := 1 + r.Intn(3)
		o := ov(r.Float64())
		ops := randomOps(r, 1+r.Intn(8), p, d)
		// Root every third operator at random distinct sites.
		for i, op := range ops {
			if i%3 != 0 {
				continue
			}
			perm := r.Perm(p)
			op.Home = append([]int(nil), perm[:len(op.Clones)]...)
		}
		res, err := OperatorSchedule(p, d, o, ops)
		if err != nil {
			return false
		}
		for _, op := range ops {
			if op.Rooted() && !reflect.DeepEqual(res.Sites[op.ID], op.Home) {
				return false
			}
		}
		return res.Response >= LowerBound(p, o, ops)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: work has no natural unit. Doubling every clone vector leaves
// every site assignment where it was and doubles Response and LowerBound
// exactly — scaling by a power of two commutes with every floating-point
// add, max and compare the placement performs, so no tolerance applies.
func TestQuickScaleInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := 1 + r.Intn(12)
		d := 1 + r.Intn(4)
		o := ov(r.Float64())
		ops := randomOps(r, 1+r.Intn(10), p, d)
		for i, op := range ops {
			if i%3 == 2 {
				op.Home = append([]int(nil), r.Perm(p)[:len(op.Clones)]...)
			}
		}
		doubled := make([]*Op, len(ops))
		for i, op := range ops {
			clones := make([]vector.Vector, len(op.Clones))
			for k, w := range op.Clones {
				clones[k] = vector.New(d)
				for j := range w {
					clones[k][j] = 2 * w[j]
				}
			}
			doubled[i] = &Op{ID: op.ID, Clones: clones, Home: op.Home}
		}

		one, err := OperatorSchedule(p, d, o, ops)
		if err != nil {
			return false
		}
		two, err := OperatorSchedule(p, d, o, doubled)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(two.Sites, one.Sites) &&
			two.Response == 2*one.Response &&
			LowerBound(p, o, doubled) == 2*LowerBound(p, o, ops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding a site never increases the makespan produced by the
// heuristic... list scheduling anomalies can violate that in general
// (Graham), so assert the weaker, always-true property that the
// response never beats the P-independent part of the lower bound h(N).
func TestQuickResponseAtLeastSlowestOperator(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := 1 + r.Intn(10)
		d := 1 + r.Intn(3)
		o := ov(r.Float64())
		ops := randomOps(r, 1+r.Intn(6), p, d)
		res, err := OperatorSchedule(p, d, o, ops)
		if err != nil {
			return false
		}
		h := 0.0
		for _, op := range ops {
			for _, w := range op.Clones {
				if ts := o.TSeq(w); ts > h {
					h = ts
				}
			}
		}
		return res.Response >= h-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkOperatorSchedule(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	ops := randomOps(r, 100, 64, 3)
	o := ov(0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OperatorSchedule(64, 3, o, ops); err != nil {
			b.Fatal(err)
		}
	}
}
