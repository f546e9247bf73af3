package sched

import (
	"math"
	"math/rand"
	"testing"

	"mdrs/internal/resource"
	"mdrs/internal/vector"
)

// TestSortedOrderBeatsArrivalOrder pins a hand-traceable LPT case:
// jobs 4,3,3,2,2 on two one-dimensional sites. The sorted (LPT) order
// packs to makespan 8 ({4,2,2} vs {3,3}); ascending arrival order
// 2,2,3,3,4 greedily ends at 9.
func TestSortedOrderBeatsArrivalOrder(t *testing.T) {
	ov := resource.MustOverlap(1)
	mk := func(ids []float64) []*Op {
		ops := make([]*Op, len(ids))
		for i, w := range ids {
			ops[i] = &Op{ID: i, Work: runsOf([]vector.Vector{vector.Of(w)})}
		}
		return ops
	}
	arrival := mk([]float64{2, 2, 3, 3, 4})

	sorted, err := OperatorSchedule(2, 1, ov, arrival)
	if err != nil {
		t.Fatal(err)
	}
	unsorted, err := OperatorScheduleUnordered(2, 1, ov, arrival)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sorted.Response-8) > 1e-12 {
		t.Fatalf("sorted makespan = %g, want 8", sorted.Response)
	}
	if math.Abs(unsorted.Response-9) > 1e-12 {
		t.Fatalf("arrival-order makespan = %g, want 9", unsorted.Response)
	}
}

// TestUnorderedStillRespectsConstraints: the ablation variant keeps
// every constraint, only the list order changes.
func TestUnorderedStillRespectsConstraints(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	ov := resource.MustOverlap(0.5)
	ops := randomOps(r, 8, 5, 3)
	n := ops[2].Degree()
	if n > 3 {
		ops[2].Work = ops[2].Work[:3]
		n = 3
	}
	ops[2].Home = []int{4, 1, 0}[:n]
	res, err := OperatorScheduleUnordered(5, 3, ov, ops)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		seen := map[int]bool{}
		for k, s := range res.Sites[op.ID] {
			if seen[s] {
				t.Fatalf("op %d clones share site %d", op.ID, s)
			}
			seen[s] = true
			if op.Rooted() && op.Home[k] != s {
				t.Fatalf("rooted op %d moved", op.ID)
			}
		}
	}
}

// TestSortedNeverWorseOnRandomInstances: over many random instances the
// sorted order's makespan is never worse than arrival order by more
// than floating noise — and is strictly better somewhere.
func TestSortedNeverWorseOnAverage(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	ov := resource.MustOverlap(0.5)
	var sumSorted, sumUnsorted float64
	strictly := false
	for trial := 0; trial < 50; trial++ {
		p := 2 + r.Intn(6)
		ops := randomOps(r, 2+r.Intn(8), p, 2)
		s, err := OperatorSchedule(p, 2, ov, ops)
		if err != nil {
			t.Fatal(err)
		}
		u, err := OperatorScheduleUnordered(p, 2, ov, ops)
		if err != nil {
			t.Fatal(err)
		}
		sumSorted += s.Response
		sumUnsorted += u.Response
		if s.Response < u.Response-1e-9 {
			strictly = true
		}
	}
	if sumSorted > sumUnsorted*1.001 {
		t.Fatalf("sorted total %g worse than arrival total %g", sumSorted, sumUnsorted)
	}
	if !strictly {
		t.Fatal("sorted order never strictly better in 50 trials — ablation toothless")
	}
}

// TestOpAccessors covers the small Op API.
func TestOpAccessors(t *testing.T) {
	op := &Op{ID: 3, Work: runsOf([]vector.Vector{vector.Of(1), vector.Of(2)})}
	if op.Rooted() || op.Degree() != 2 {
		t.Fatalf("accessors: rooted=%v degree=%d", op.Rooted(), op.Degree())
	}
	op.Home = []int{0, 1}
	if !op.Rooted() {
		t.Fatal("homed op not rooted")
	}
}

// TestWorstObservedRatioStaysUnderBound hunts for bad instances with a
// randomized search and records the worst makespan/LB ratio seen; it
// must stay under the proven 2d+1.
func TestWorstObservedRatioStaysUnderBound(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	worst := 0.0
	for trial := 0; trial < 300; trial++ {
		p := 2 + r.Intn(4)
		d := 1 + r.Intn(3)
		ov := resource.MustOverlap(r.Float64())
		m := 1 + r.Intn(6)
		ops := make([]*Op, m)
		for i := range ops {
			n := 1 + r.Intn(p)
			clones := make([]vector.Vector, n)
			for k := range clones {
				w := vector.New(d)
				// Spiky vectors: one dominant dimension each, the
				// adversarial pattern for scalar-load greedy rules.
				w[r.Intn(d)] = 1 + r.Float64()*9
				clones[k] = w
			}
			ops[i] = &Op{ID: i, Work: runsOf(clones)}
		}
		res, err := OperatorSchedule(p, d, ov, ops)
		if err != nil {
			t.Fatal(err)
		}
		lb := LowerBound(p, ov, ops)
		if lb > 0 {
			if ratio := res.Response / lb; ratio > worst {
				worst = ratio
			}
		}
		if res.Response > PerformanceRatioBound(d)*lb+1e-9 {
			t.Fatalf("trial %d: ratio %g exceeds bound %g",
				trial, res.Response/lb, PerformanceRatioBound(d))
		}
	}
	// Empirically the spiky adversary reaches ~1.5–2.0; if this ever
	// approaches the bound something structural has broken.
	if worst > 3 {
		t.Fatalf("worst observed ratio %g suspiciously close to the bound", worst)
	}
}
