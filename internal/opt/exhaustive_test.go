package opt

// Brute-force optima for tiny instances, the references the Theorem 5.1
// and Theorem 7.1 performance-ratio tests compare the list schedulers
// against. They are oracles only: nothing outside this package's tests
// calls them.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mdrs/internal/costmodel"
	"mdrs/internal/repro/malleable"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
	"mdrs/internal/vector"
)

// Exhaustive finds the response time of the optimal assignment of the
// given operators (with their fixed clone vectors) to p d-dimensional
// sites, subject to Definition 5.1's constraints, by exhaustive
// branch-and-bound. Rooted operators are honored. The search is
// exponential in the total clone count; callers must keep instances
// tiny (≲ 10 clones).
func Exhaustive(p, d int, ov resource.Overlap, ops []*sched.Op) (float64, error) {
	// Validate via a throwaway heuristic run, which also gives an upper
	// bound that seeds the branch-and-bound.
	heur, err := sched.OperatorSchedule(p, d, ov, ops)
	if err != nil {
		return 0, err
	}
	best := heur.Response

	type cloneRef struct {
		op *sched.Op
		w  vector.Vector
	}
	var clones []cloneRef
	// work[j] is the multiset work(s_j), pushed and popped as the search
	// descends and backtracks; a trial is priced by Equation 2 over it.
	work := make([][]vector.Vector, p)
	usedBy := make(map[*sched.Op]map[int]bool, len(ops))
	for _, op := range ops {
		usedBy[op] = map[int]bool{}
		for k, w := range expand(op.Work) {
			if op.Rooted() {
				work[op.Home[k]] = append(work[op.Home[k]], w)
				usedBy[op][op.Home[k]] = true
			} else {
				clones = append(clones, cloneRef{op: op, w: w})
			}
		}
	}

	var rec func(i int, cur float64)
	rec = func(i int, cur float64) {
		if cur >= best-1e-15 {
			return // prune: partial makespan already no better
		}
		if i == len(clones) {
			best = cur
			return
		}
		c := clones[i]
		for j := 0; j < p; j++ {
			if usedBy[c.op][j] {
				continue
			}
			work[j] = append(work[j], c.w)
			usedBy[c.op][j] = true
			rec(i+1, max(cur, ov.TSite(work[j])))
			usedBy[c.op][j] = false
			work[j] = work[j][:len(work[j])-1]
		}
	}
	start := 0.0
	for _, w := range work {
		start = max(start, ov.TSite(w))
	}
	rec(0, start)
	return best, nil
}

// expand is work clone by clone.
func expand(work []sched.WorkRun) []vector.Vector {
	var clones []vector.Vector
	for _, r := range work {
		for range r.N {
			clones = append(clones, r.W)
		}
	}
	return clones
}

// runsOf is one run of one clone per vector.
func runsOf(clones []vector.Vector) []sched.WorkRun {
	work := make([]sched.WorkRun, len(clones))
	for k, w := range clones {
		work[k] = sched.WorkRun{N: 1, W: w}
	}
	return work
}

// ExhaustiveMalleable finds the optimal response time over all
// parallelizations and all assignments for a set of malleable floating
// operators: the unconstrained optimum of Section 7. Complexity is
// O(P^M) parallelizations times an exhaustive packing each; instances
// must be tiny.
func ExhaustiveMalleable(p int, ov resource.Overlap, m costmodel.Model, ops []malleable.Operator) (float64, error) {
	if len(ops) == 0 {
		return 0, fmt.Errorf("opt: no operators")
	}
	if p <= 0 {
		return 0, fmt.Errorf("opt: non-positive site count %d", p)
	}
	degrees := make([]int, len(ops))
	for i := range degrees {
		degrees[i] = 1
	}
	best := math.Inf(1)
	for {
		schedOps := make([]*sched.Op, len(ops))
		for i, op := range ops {
			schedOps[i] = &sched.Op{ID: op.ID, Work: sched.SplitWork(m.Split(op.Cost, degrees[i]))}
		}
		opt, err := Exhaustive(p, resource.Dims, ov, schedOps)
		if err != nil {
			return 0, err
		}
		if opt < best {
			best = opt
		}
		// Next parallelization in mixed-radix order.
		i := 0
		for ; i < len(degrees); i++ {
			if degrees[i] < p {
				degrees[i]++
				break
			}
			degrees[i] = 1
		}
		if i == len(degrees) {
			return best, nil
		}
	}
}

func TestExhaustiveMatchesHandOptimum(t *testing.T) {
	ov := resource.MustOverlap(1)
	// Two CPU-bound and two disk-bound unit ops on two sites: optimum
	// pairs complements, response 10.
	ops := []*sched.Op{
		{ID: 0, Work: runsOf([]vector.Vector{vector.Of(10, 0)})},
		{ID: 1, Work: runsOf([]vector.Vector{vector.Of(10, 0)})},
		{ID: 2, Work: runsOf([]vector.Vector{vector.Of(0, 10)})},
		{ID: 3, Work: runsOf([]vector.Vector{vector.Of(0, 10)})},
	}
	got, err := Exhaustive(2, 2, ov, ops)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-9 {
		t.Fatalf("exhaustive = %g, want 10", got)
	}
}

func TestExhaustiveRespectsRootedOps(t *testing.T) {
	ov := resource.MustOverlap(1)
	// A rooted hog on site 0 forces the floating op to site 1.
	ops := []*sched.Op{
		{ID: 0, Work: runsOf([]vector.Vector{vector.Of(100, 0)}), Home: []int{0}},
		{ID: 1, Work: runsOf([]vector.Vector{vector.Of(5, 5)})},
	}
	got, err := Exhaustive(2, 2, ov, ops)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-100) > 1e-9 {
		t.Fatalf("exhaustive = %g, want 100", got)
	}
}

func TestExhaustiveNeverAboveHeuristic(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	ov := resource.MustOverlap(0.4)
	for trial := 0; trial < 25; trial++ {
		p := 2 + r.Intn(2)
		d := 1 + r.Intn(3)
		var ops []*sched.Op
		totalClones := 0
		for i := 0; totalClones < 6 && i < 5; i++ {
			n := 1 + r.Intn(2)
			if n > p {
				n = p
			}
			clones := make([]vector.Vector, n)
			for k := range clones {
				w := vector.New(d)
				for j := range w {
					w[j] = r.Float64() * 10
				}
				clones[k] = w
			}
			ops = append(ops, &sched.Op{ID: i, Work: runsOf(clones)})
			totalClones += n
		}
		heur, err := sched.OperatorSchedule(p, d, ov, ops)
		if err != nil {
			t.Fatal(err)
		}
		optVal, err := Exhaustive(p, d, ov, ops)
		if err != nil {
			t.Fatal(err)
		}
		if optVal > heur.Response+1e-9 {
			t.Fatalf("exhaustive %g above heuristic %g", optVal, heur.Response)
		}
		// Theorem 5.1(a): heuristic within (2d+1) of optimum.
		if heur.Response > sched.PerformanceRatioBound(d)*optVal+1e-9 {
			t.Fatalf("heuristic %g violates (2d+1)·OPT = %g",
				heur.Response, sched.PerformanceRatioBound(d)*optVal)
		}
	}
}

func TestExhaustiveMalleableTheorem71(t *testing.T) {
	// Theorem 7.1: the malleable list schedule is within (2d+1) of the
	// optimum over ALL parallelizations. Verify on tiny instances.
	r := rand.New(rand.NewSource(29))
	m := costmodel.Default()
	for trial := 0; trial < 5; trial++ {
		p := 2 + r.Intn(2)
		ov := resource.MustOverlap(r.Float64())
		var ops []malleable.Operator
		for i := 0; i < 2; i++ {
			ops = append(ops, malleable.Operator{
				ID: i,
				Cost: m.Cost(costmodel.OpSpec{
					Kind:     costmodel.Scan,
					InTuples: 1000 + r.Intn(50000),
					NetOut:   true,
				}),
			})
		}
		s := malleable.Scheduler{Model: m, Overlap: ov, P: p}
		res, err := s.Schedule(ops)
		if err != nil {
			t.Fatal(err)
		}
		optVal, err := ExhaustiveMalleable(p, ov, m, ops)
		if err != nil {
			t.Fatal(err)
		}
		bound := sched.PerformanceRatioBound(resource.Dims) * optVal
		if res.Schedule.Response > bound+1e-9 {
			t.Fatalf("malleable response %g > (2d+1)·OPT = %g (OPT = %g)",
				res.Schedule.Response, bound, optVal)
		}
		if optVal > res.Schedule.Response+1e-9 {
			t.Fatalf("optimum %g above heuristic %g", optVal, res.Schedule.Response)
		}
	}
}

func TestExhaustiveMalleableValidation(t *testing.T) {
	m := costmodel.Default()
	ov := resource.MustOverlap(0.5)
	if _, err := ExhaustiveMalleable(2, ov, m, nil); err == nil {
		t.Error("empty operator set accepted")
	}
	ops := []malleable.Operator{{ID: 0, Cost: m.Cost(costmodel.OpSpec{Kind: costmodel.Scan, InTuples: 100})}}
	if _, err := ExhaustiveMalleable(0, ov, m, ops); err == nil {
		t.Error("P = 0 accepted")
	}
}

// TestLowerBoundIsSoundAgainstExhaustive: LB(N) from Section 7 must
// never exceed the true optimal makespan found by brute force.
func TestLowerBoundIsSoundAgainstExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		p := 2 + r.Intn(2)
		d := 1 + r.Intn(3)
		ov := resource.MustOverlap(r.Float64())
		var ops []*sched.Op
		total := 0
		for i := 0; total < 6 && i < 4; i++ {
			n := 1 + r.Intn(2)
			if n > p {
				n = p
			}
			clones := make([]vector.Vector, n)
			for k := range clones {
				w := vector.New(d)
				for j := range w {
					w[j] = r.Float64() * 10
				}
				clones[k] = w
			}
			ops = append(ops, &sched.Op{ID: i, Work: runsOf(clones)})
			total += n
		}
		lb := sched.LowerBound(p, ov, ops)
		optVal, err := Exhaustive(p, d, ov, ops)
		if err != nil {
			t.Fatal(err)
		}
		if lb > optVal+1e-9 {
			t.Fatalf("trial %d: LB %g above true optimum %g — bound unsound", trial, lb, optVal)
		}
	}
}
