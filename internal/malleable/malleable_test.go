package malleable

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mdrs/internal/costmodel"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
)

func testScheduler(p int, eps float64) Scheduler {
	return Scheduler{
		Model:   costmodel.Default(),
		Overlap: resource.MustOverlap(eps),
		P:       p,
	}
}

func randomOperators(r *rand.Rand, m int) []Operator {
	model := costmodel.Default()
	ops := make([]Operator, m)
	for i := range ops {
		kind := costmodel.Scan
		if r.Intn(2) == 0 {
			kind = costmodel.Probe
		}
		ops[i] = Operator{
			ID: i,
			Cost: model.Cost(costmodel.OpSpec{
				Kind:         kind,
				InTuples:     1000 + r.Intn(99000),
				ResultTuples: 1000 + r.Intn(99000),
				NetIn:        kind == costmodel.Probe,
				NetOut:       true,
			}),
		}
	}
	return ops
}

func TestValidate(t *testing.T) {
	if err := testScheduler(10, 0.5).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Scheduler{Model: costmodel.Default(), P: 0}).Validate(); err == nil {
		t.Fatal("P = 0 accepted")
	}
	if err := (Scheduler{P: 5}).Validate(); err == nil {
		t.Fatal("zero model accepted")
	}
}

func TestCandidatesRejections(t *testing.T) {
	s := testScheduler(4, 0.5)
	if _, err := s.Candidates(nil); err == nil {
		t.Fatal("empty operator set accepted")
	}
	ops := randomOperators(rand.New(rand.NewSource(1)), 2)
	ops[1].ID = ops[0].ID
	if _, err := s.Candidates(ops); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
}

func TestCandidatesStructure(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	s := testScheduler(6, 0.5)
	ops := randomOperators(r, 4)
	family, err := s.Candidates(ops)
	if err != nil {
		t.Fatal(err)
	}
	// First candidate is all ones.
	for i, n := range family[0] {
		if n != 1 {
			t.Fatalf("N^1[%d] = %d, want 1", i, n)
		}
	}
	// Each successive candidate adds exactly one site to exactly one
	// operator, and never exceeds P.
	for k := 1; k < len(family); k++ {
		diff, grew := 0, -1
		for i := range family[k] {
			switch family[k][i] - family[k-1][i] {
			case 0:
			case 1:
				diff++
				grew = i
			default:
				t.Fatalf("candidate %d changed op %d by %d", k, i,
					family[k][i]-family[k-1][i])
			}
			if family[k][i] > s.P {
				t.Fatalf("candidate %d gives op %d degree %d > P", k, i, family[k][i])
			}
		}
		if diff != 1 {
			t.Fatalf("candidate %d grew %d operators, want 1", k, diff)
		}
		// The grown operator was the slowest in the previous candidate.
		_, slowest := s.h(ops, family[k-1])
		if grew != slowest {
			t.Fatalf("candidate %d grew op %d, slowest was %d", k, grew, slowest)
		}
	}
	// Termination: the slowest operator of the last candidate is at P.
	last := family[len(family)-1]
	_, slowest := s.h(ops, last)
	if last[slowest] != s.P {
		t.Fatalf("family ended with slowest op at degree %d != P", last[slowest])
	}
}

func TestFamilySizeBound(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		m := 1 + r.Intn(6)
		p := 1 + r.Intn(12)
		s := testScheduler(p, r.Float64())
		ops := randomOperators(r, m)
		family, err := s.Candidates(ops)
		if err != nil {
			t.Fatal(err)
		}
		if len(family) > FamilySizeBound(m, p) {
			t.Fatalf("family size %d > bound %d (M=%d, P=%d)",
				len(family), FamilySizeBound(m, p), m, p)
		}
	}
}

func TestSelectPicksMinimumLB(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	s := testScheduler(8, 0.5)
	ops := randomOperators(r, 5)
	family, err := s.Candidates(ops)
	if err != nil {
		t.Fatal(err)
	}
	n, lb, err := s.Select(ops)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lb-s.LB(ops, n)) > 1e-12 {
		t.Fatalf("returned LB %g != LB(N) %g", lb, s.LB(ops, n))
	}
	for _, cand := range family {
		if s.LB(ops, cand) < lb-1e-9 {
			t.Fatalf("candidate %v has LB %g < selected %g", cand, s.LB(ops, cand), lb)
		}
	}
}

func TestScheduleWithinTheoremBound(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		p := 2 + r.Intn(14)
		s := testScheduler(p, r.Float64())
		ops := randomOperators(r, 1+r.Intn(8))
		res, err := s.Schedule(ops)
		if err != nil {
			t.Fatal(err)
		}
		bound := sched.PerformanceRatioBound(resource.Dims) * res.LB
		if res.Schedule.Response > bound+1e-9 {
			t.Fatalf("response %g > (2d+1)·LB = %g", res.Schedule.Response, bound)
		}
		if res.Schedule.Response < res.LB-1e-9 {
			t.Fatalf("response %g < LB %g", res.Schedule.Response, res.LB)
		}
	}
}

func TestMalleableAtLeastAsGoodLBAsCoarseGrain(t *testing.T) {
	// The GF family contains every "grow the slowest op" prefix, so its
	// minimum LB can only beat or match the LB of the all-ones
	// parallelization; and the selected LB must also not exceed the CG_f
	// candidate's LB when that candidate happens to be in the family.
	// The universally true statement: selected LB <= LB(all ones).
	r := rand.New(rand.NewSource(6))
	s := testScheduler(10, 0.5)
	ops := randomOperators(r, 6)
	_, lb, err := s.Select(ops)
	if err != nil {
		t.Fatal(err)
	}
	ones := make(Parallelization, len(ops))
	for i := range ones {
		ones[i] = 1
	}
	if lb > s.LB(ops, ones)+1e-9 {
		t.Fatalf("selected LB %g > LB(1,…,1) = %g", lb, s.LB(ops, ones))
	}
}

func TestCoarseGrainParallelizationCaps(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s := testScheduler(12, 0.5)
	ops := randomOperators(r, 5)
	for _, f := range []float64{0.3, 0.7} {
		n := s.CoarseGrainParallelization(ops, f)
		for i, op := range ops {
			if n[i] < 1 || n[i] > s.P {
				t.Fatalf("degree %d outside [1, P]", n[i])
			}
			if n[i] > s.Model.NMax(op.Cost, f) {
				t.Fatalf("degree %d > N_max %d", n[i], s.Model.NMax(op.Cost, f))
			}
		}
	}
}

func TestScheduleFixed(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	s := testScheduler(6, 0.4)
	ops := randomOperators(r, 4)
	n := Parallelization{1, 2, 3, 1}
	res, err := s.ScheduleFixed(ops, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		if len(res.Schedule.Sites[op.ID]) != n[i] {
			t.Fatalf("op %d scheduled with %d clones, want %d",
				op.ID, len(res.Schedule.Sites[op.ID]), n[i])
		}
	}
	// Error paths.
	if _, err := s.ScheduleFixed(ops, Parallelization{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := s.ScheduleFixed(ops, Parallelization{0, 1, 1, 1}); err == nil {
		t.Fatal("zero degree accepted")
	}
	if _, err := s.ScheduleFixed(ops, Parallelization{7, 1, 1, 1}); err == nil {
		t.Fatal("degree > P accepted")
	}
}

func TestMalleableBeatsOrMatchesCoarseGrainOnAverage(t *testing.T) {
	// The malleable scheduler optimizes over a family that includes
	// near-sequential parallelizations; averaged over instances its
	// response should not be worse than the f = 0.7 coarse-grain rule by
	// more than a small factor (they often coincide).
	r := rand.New(rand.NewSource(9))
	sumMal, sumCG := 0.0, 0.0
	s := testScheduler(16, 0.5)
	for trial := 0; trial < 20; trial++ {
		ops := randomOperators(r, 6)
		mal, err := s.Schedule(ops)
		if err != nil {
			t.Fatal(err)
		}
		cg, err := s.ScheduleFixed(ops, s.CoarseGrainParallelization(ops, 0.7))
		if err != nil {
			t.Fatal(err)
		}
		sumMal += mal.Schedule.Response
		sumCG += cg.Schedule.Response
	}
	if sumMal > sumCG*1.25 {
		t.Fatalf("malleable total %g much worse than coarse-grain total %g", sumMal, sumCG)
	}
}

// Property: the work-vector monotonicity Theorem 7.1 relies on —
// n <= m implies TotalWork(n) <=_d TotalWork(m) — holds for the cost
// model, and LB is monotone under refinement of no operator... assert
// the first part plus LB >= h for every candidate.
func TestQuickMonotoneWorkAndLB(t *testing.T) {
	model := costmodel.Default()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ops := randomOperators(r, 1+r.Intn(5))
		s := testScheduler(2+r.Intn(10), r.Float64())
		for _, op := range ops {
			n := 1 + r.Intn(s.P)
			m := n + r.Intn(s.P)
			if !model.TotalWork(op.Cost, n).LE(model.TotalWork(op.Cost, m)) {
				return false
			}
		}
		family, err := s.Candidates(ops)
		if err != nil {
			return false
		}
		for _, cand := range family {
			h, _ := s.h(ops, cand)
			if s.LB(ops, cand) < h-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMalleableSchedule(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	s := testScheduler(32, 0.5)
	ops := randomOperators(r, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(ops); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMalleable(t *testing.T) {
	m := costmodel.Default()
	ms := testScheduler(8, 0.5)
	ops := []Operator{
		{ID: 0, Cost: m.Cost(costmodel.OpSpec{Kind: costmodel.Scan, InTuples: 50000, NetOut: true})},
		{ID: 1, Cost: m.Cost(costmodel.OpSpec{Kind: costmodel.Scan, InTuples: 20000, NetOut: true})},
	}
	res, err := ms.Schedule(ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Response < res.LB-1e-9 || res.Schedule.Response > 7*res.LB+1e-9 {
		t.Fatalf("response %g outside [LB, 7·LB] = [%g, %g]",
			res.Schedule.Response, res.LB, 7*res.LB)
	}
}
