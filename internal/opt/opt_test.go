package opt

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mdrs/internal/costmodel"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
	"mdrs/internal/vector"
)

func leaf(name string, tuples int) *query.PlanNode {
	return &query.PlanNode{
		Relation: &query.Relation{Name: name, Tuples: tuples},
		Tuples:   tuples,
	}
}

func join(outer, inner *query.PlanNode) *query.PlanNode {
	t := outer.Tuples
	if inner.Tuples > t {
		t = inner.Tuples
	}
	return &query.PlanNode{Outer: outer, Inner: inner, Tuples: t}
}

func taskTree(t *testing.T, p *query.PlanNode) *plan.TaskTree {
	t.Helper()
	return plan.MustNewTaskTree(plan.MustExpand(p))
}

func TestBoundArgumentValidation(t *testing.T) {
	tt := taskTree(t, leaf("R", 1000))
	m := costmodel.Default()
	ov := resource.MustOverlap(0.5)
	if _, err := Bound(tt, m, ov, 0, 0.7); err == nil {
		t.Error("P = 0 accepted")
	}
	for _, f := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := Bound(tt, m, ov, 4, f); err == nil {
			t.Errorf("f = %g accepted", f)
		}
	}
	for _, eps := range []float64{-1, 2, math.NaN(), math.Inf(1)} {
		bad := resource.Overlap{Epsilon: eps}
		if b, err := Bound(tt, m, bad, 4, 0.7); err == nil {
			t.Errorf("ε = %g accepted (bound %g)", eps, b)
		}
		if b, err := BoundCached(tt, costmodel.NewCache(m), bad, 4, 0.7); err == nil {
			t.Errorf("BoundCached: ε = %g accepted (bound %g)", eps, b)
		}
	}
}

func TestBoundSingleScan(t *testing.T) {
	m := costmodel.Default()
	ov := resource.MustOverlap(0.5)
	tt := taskTree(t, leaf("R", 10000))
	b, err := Bound(tt, m, ov, 8, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	// One operator: the bound is max of congestion and its best T^par.
	c := m.Cost(costmodel.OpSpec{Kind: costmodel.Scan, InTuples: 10000, NetOut: true})
	n := m.Degree(c, 0.7, 8, ov)
	want := math.Max(c.Processing.Length()/8, m.TPar(c, n, ov))
	if math.Abs(b-want) > 1e-9 {
		t.Fatalf("bound = %g, want %g", b, want)
	}
}

// On random trees at random P, ε, f, degree caps, phase policies and
// declustered homes: the schedule is well-formed (sched.Verify), every
// phase is inside the Theorem 5.1(a) envelope, response ≤ (2d+1)·LB of
// the clone vectors it placed, and the two bounds the plan search prunes
// with are ordered OPTBOUND ≤ PhaseBound ≤ response. PhaseBound is the
// sum of the placed phases' LowerBounds up to float summation order,
// with or without a cost-model memo.
func TestBoundIsLowerBoundOnTreeSchedule(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	m := costmodel.Default()
	cache := costmodel.NewCache(m)
	worst := 0.0
	var rec sched.Priced // one record reused across trials, as the plan search reuses one
	for trial := 0; trial < 60; trial++ {
		joins := 1 + r.Intn(24)
		p := 1 + r.Intn(140)
		ov := resource.MustOverlap(r.Float64())
		f := 0.3 + 0.9*r.Float64()
		maxDeg := []int{0, 1, 4}[r.Intn(3)]
		policy := []plan.PhasePolicy{plan.MinShelf, plan.EarliestShelf}[r.Intn(2)]
		tt := taskTree(t, query.MustRandom(r, query.DefaultGenConfig(joins)))
		ts := sched.TreeScheduler{Model: m, Overlap: ov, P: p, F: f, MaxDegree: maxDeg, Policy: policy}
		declustered := r.Intn(2) == 0
		if declustered {
			homes, err := ts.RandomDeclustering(r, tt)
			if err != nil {
				t.Fatal(err)
			}
			ts.Homes = homes
		}
		at := func() string {
			return fmt.Sprintf("trial %d: joins=%d P=%d eps=%g f=%g MaxDegree=%d policy=%v declustered=%v",
				trial, joins, p, ov.Epsilon, f, maxDeg, policy, declustered)
		}
		lb, err := Bound(tt, m, ov, p, f)
		if err != nil {
			t.Fatalf("%s: %v", at(), err)
		}
		pb, err := ts.PhaseBound(tt)
		if err != nil {
			t.Fatalf("%s: %v", at(), err)
		}
		cached := ts
		cached.Cache = cache
		if got, err := cached.PhaseBound(tt); err != nil || got != pb {
			t.Fatalf("%s: PhaseBound through the memo %g (err %v), without %g", at(), got, err, pb)
		}
		s, err := ts.Schedule(tt)
		if err != nil {
			t.Fatalf("%s: %v", at(), err)
		}
		if err := sched.Verify(s, ov); err != nil {
			t.Fatalf("%s: %v", at(), err)
		}
		// The record PhaseBound reads is the one the placement reads: its
		// bound is PhaseBound's and its schedule is Schedule's, byte for
		// byte (sched's TestPricedRecordIsWhatIsPlaced holds each
		// placement to its record entry).
		if got, err := cached.Price(&rec, tt); err != nil || got != pb {
			t.Fatalf("%s: priced bound %g (err %v), PhaseBound %g", at(), got, err, pb)
		}
		fromRec, err := rec.Schedule(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", at(), err)
		}
		if got, want := mustEncode(t, fromRec), mustEncode(t, s); !bytes.Equal(got, want) {
			t.Fatalf("%s: schedule placed from the priced record differs from Schedule's", at())
		}
		if s.Response < lb-1e-9 {
			t.Fatalf("%s: TreeSchedule response %g below OPTBOUND %g", at(), s.Response, lb)
		}
		if lb > pb*(1+1e-9) {
			t.Fatalf("%s: OPTBOUND %g above PhaseBound %g", at(), lb, pb)
		}
		if pb > s.Response*(1+1e-12) {
			t.Fatalf("%s: PhaseBound %g above TreeSchedule response %g", at(), pb, s.Response)
		}
		placed := 0.0
		for _, ph := range s.Phases {
			ops := make([]*sched.Op, len(ph.Placements))
			for i, pl := range ph.Placements {
				ops[i] = &sched.Op{ID: pl.Op.ID, Work: pl.Work}
			}
			phaseLB := sched.LowerBound(p, ov, ops)
			if ph.Response < phaseLB-1e-9 || ph.Response > sched.PerformanceRatioBound(resource.Dims)*phaseLB+1e-9 {
				t.Fatalf("%s: phase %d response %g outside [LB, (2d+1)·LB] = [%g, %g]", at(), ph.Index,
					ph.Response, phaseLB, sched.PerformanceRatioBound(resource.Dims)*phaseLB)
			}
			placed += phaseLB
		}
		gap := math.Abs(pb-placed) / placed
		if gap > 1e-12 {
			t.Fatalf("%s: PhaseBound %.17g, Σ phase LowerBound of the placed clones %.17g", at(), pb, placed)
		}
		worst = max(worst, gap)
	}
	t.Logf("largest relative gap between PhaseBound and Σ placed phase LowerBound: %.3g", worst)
}

func TestBoundCriticalPathDominatesOnDeepPlans(t *testing.T) {
	// A right-deep chain serializes all tasks: with many sites the
	// critical path term must dominate the congestion term.
	p := leaf("R0", 50000)
	for i := 1; i <= 6; i++ {
		p = join(leaf("x", 50000), p) // inner = deeper chain
	}
	m := costmodel.Default()
	ov := resource.MustOverlap(0.5)
	tt := taskTree(t, p)
	bBig, err := Bound(tt, m, ov, 1000, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	// Congestion with P=1000 is negligible; the bound must stay well
	// above it because of the serial chain.
	total := vector.New(resource.Dims)
	for _, tk := range tt.Tasks {
		for _, op := range tk.Ops {
			total.AddInPlace(m.Cost(op.Spec).Processing)
		}
	}
	if bBig <= total.Length()/1000*1.5 {
		t.Fatalf("critical path not reflected: bound %g, congestion %g",
			bBig, total.Length()/1000)
	}
}

func TestBoundMonotoneInP(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pl := query.MustRandom(r, query.DefaultGenConfig(15))
	tt := taskTree(t, pl)
	m := costmodel.Default()
	ov := resource.MustOverlap(0.5)
	prev := math.Inf(1)
	for _, p := range []int{10, 20, 40, 80, 140} {
		b, err := Bound(tt, m, ov, p, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		if b > prev+1e-9 {
			t.Fatalf("OPTBOUND increased with P: %g -> %g at P=%d", prev, b, p)
		}
		prev = b
	}
}

func BenchmarkBound40Joins(b *testing.B) {
	pl := query.MustRandom(rand.New(rand.NewSource(1)), query.DefaultGenConfig(40))
	tt := plan.MustNewTaskTree(plan.MustExpand(pl))
	m := costmodel.Default()
	ov := resource.MustOverlap(0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Bound(tt, m, ov, 80, 0.7); err != nil {
			b.Fatal(err)
		}
	}
}

// BoundCached must be bit-identical to Bound: the cache contract says
// every memoized derivation equals the uncached model's, and the
// optimizer's pruning correctness leans on the two bounds agreeing.
func TestBoundCachedMatchesBound(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	m := costmodel.Default()
	ov := resource.MustOverlap(0.5)
	cache := costmodel.NewCache(m)
	for trial := 0; trial < 10; trial++ {
		joins := 2 + r.Intn(18)
		p := 4 + r.Intn(100)
		pl := query.MustRandom(r, query.DefaultGenConfig(joins))
		tt := taskTree(t, pl)
		plain, err := Bound(tt, m, ov, p, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		cached, err := BoundCached(tt, cache, ov, p, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		if plain != cached {
			t.Fatalf("BoundCached = %g != Bound = %g (joins=%d P=%d)", cached, plain, joins, p)
		}
	}
	if hits, _ := cache.Stats(); hits == 0 {
		t.Fatal("cache never hit across structurally repeated specs")
	}
	// Validation errors surface identically through the cached path.
	if _, err := BoundCached(taskTree(t, leaf("R", 1000)), cache, ov, 0, 0.7); err == nil {
		t.Fatal("P = 0 accepted")
	}
}

func mustEncode(t *testing.T, s *sched.Schedule) []byte {
	t.Helper()
	b, err := sched.EncodeJSON(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
