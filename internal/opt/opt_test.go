package opt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mdrs/internal/costmodel"
	"mdrs/internal/malleable"
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
	if _, err := Bound(tt, m, ov, 4, -1); err == nil {
		t.Error("f < 0 accepted")
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

// On random trees at random P, ε, f and degree caps: the schedule is
// well-formed (sched.Verify), OPTBOUND ≤ response, and every phase is
// inside the Theorem 5.1(a) envelope, response ≤ (2d+1)·LB of the clone
// vectors it placed.
func TestBoundIsLowerBoundOnTreeSchedule(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	m := costmodel.Default()
	for trial := 0; trial < 60; trial++ {
		joins := 1 + r.Intn(24)
		p := 1 + r.Intn(140)
		ov := resource.MustOverlap(r.Float64())
		f := 0.3 + 0.9*r.Float64()
		maxDeg := []int{0, 1, 4}[r.Intn(3)]
		tt := taskTree(t, query.MustRandom(r, query.DefaultGenConfig(joins)))
		at := func() string {
			return fmt.Sprintf("trial %d: joins=%d P=%d eps=%g f=%g MaxDegree=%d", trial, joins, p, ov.Epsilon, f, maxDeg)
		}
		lb, err := Bound(tt, m, ov, p, f)
		if err != nil {
			t.Fatalf("%s: %v", at(), err)
		}
		s, err := sched.TreeScheduler{Model: m, Overlap: ov, P: p, F: f, MaxDegree: maxDeg}.Schedule(tt)
		if err != nil {
			t.Fatalf("%s: %v", at(), err)
		}
		if err := sched.Verify(s, ov); err != nil {
			t.Fatalf("%s: %v", at(), err)
		}
		if s.Response < lb-1e-9 {
			t.Fatalf("%s: TreeSchedule response %g below OPTBOUND %g", at(), s.Response, lb)
		}
		for _, ph := range s.Phases {
			ops := make([]*sched.Op, len(ph.Placements))
			for i, pl := range ph.Placements {
				ops[i] = &sched.Op{ID: pl.Op.ID, Clones: pl.Clones}
			}
			phaseLB := sched.LowerBound(p, ov, ops)
			if ph.Response < phaseLB-1e-9 || ph.Response > sched.PerformanceRatioBound(resource.Dims)*phaseLB+1e-9 {
				t.Fatalf("%s: phase %d response %g outside [LB, (2d+1)·LB] = [%g, %g]", at(), ph.Index,
					ph.Response, phaseLB, sched.PerformanceRatioBound(resource.Dims)*phaseLB)
			}
		}
	}
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

func TestExhaustiveMatchesHandOptimum(t *testing.T) {
	ov := resource.MustOverlap(1)
	// Two CPU-bound and two disk-bound unit ops on two sites: optimum
	// pairs complements, response 10.
	ops := []*sched.Op{
		{ID: 0, Clones: []vector.Vector{vector.Of(10, 0)}},
		{ID: 1, Clones: []vector.Vector{vector.Of(10, 0)}},
		{ID: 2, Clones: []vector.Vector{vector.Of(0, 10)}},
		{ID: 3, Clones: []vector.Vector{vector.Of(0, 10)}},
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
		{ID: 0, Clones: []vector.Vector{vector.Of(100, 0)}, Home: []int{0}},
		{ID: 1, Clones: []vector.Vector{vector.Of(5, 5)}},
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
			ops = append(ops, &sched.Op{ID: i, Clones: clones})
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
			ops = append(ops, &sched.Op{ID: i, Clones: clones})
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
