package pipesim

import (
	"math"
	"math/rand"
	"testing"

	"mdrs/internal/costmodel"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
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

func schedule(t *testing.T, p *query.PlanNode, sites int, eps float64) *sched.Schedule {
	t.Helper()
	tt := plan.MustNewTaskTree(plan.MustExpand(p))
	s, err := sched.TreeScheduler{
		Model:   costmodel.Default(),
		Overlap: resource.MustOverlap(eps),
		P:       sites,
		F:       0.7,
	}.Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSingleScanMatchesAnalytic(t *testing.T) {
	// One operator, no pipeline constraints: the simulation must agree
	// with the analytic response to step resolution.
	ov := resource.MustOverlap(0.5)
	s := schedule(t, leaf("R", 50000), 4, 0.5)
	res, err := Simulate(ov, s, Config{Steps: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Ratio()-1) > 0.01 {
		t.Fatalf("single scan ratio %g, want ~1 (analytic %g, simulated %g)",
			res.Ratio(), res.Analytic, res.Simulated)
	}
}

func TestAnalyticMatchesScheduleResponse(t *testing.T) {
	ov := resource.MustOverlap(0.5)
	s := schedule(t, join(leaf("A", 20000), leaf("B", 8000)), 6, 0.5)
	res, err := Simulate(ov, s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Analytic-s.Response) > 1e-9 {
		t.Fatalf("analytic %g != schedule response %g", res.Analytic, s.Response)
	}
	if len(res.PhaseAnalytic) != len(s.Phases) || len(res.PhaseSimulated) != len(s.Phases) {
		t.Fatal("phase count mismatch")
	}
}

func TestPipelinedScheduleWithinModestBand(t *testing.T) {
	// The pipeline constraint can stretch phases (a consumer cannot
	// outrun its producer), but on balanced schedules the error of the
	// paper's concurrency abstraction stays small.
	r := rand.New(rand.NewSource(3))
	ov := resource.MustOverlap(0.5)
	for trial := 0; trial < 4; trial++ {
		p := query.MustRandom(r, query.DefaultGenConfig(8))
		s := schedule(t, p, 12, 0.5)
		res, err := Simulate(ov, s, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Simulated < res.Analytic*0.99 {
			t.Fatalf("trial %d: simulated %g below analytic %g — pipelining cannot speed things up",
				trial, res.Simulated, res.Analytic)
		}
		if res.Ratio() > 1.6 {
			t.Fatalf("trial %d: ratio %g — pipeline abstraction error implausibly large",
				trial, res.Ratio())
		}
	}
}

func TestSlowProducerStallsConsumer(t *testing.T) {
	// Craft a schedule by hand: a big scan feeding a small build on
	// disjoint sites. The build alone is fast, but it cannot finish
	// before the scan does.
	ov := resource.MustOverlap(0.5)
	p := join(leaf("A", 1000), leaf("B", 80000))
	tt := plan.MustNewTaskTree(plan.MustExpand(p))
	s, err := sched.TreeScheduler{
		Model:   costmodel.Default(),
		Overlap: resource.MustOverlap(0.5),
		P:       8,
		F:       0.7,
	}.Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(ov, s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Phase 0 holds {scan(B) build(J0)}; the simulated phase must be at
	// least the scan's parallel time (its producer pace bounds the
	// build).
	var scanTPar float64
	for _, pl := range s.Phases[0].Placements {
		if pl.Op.Kind == costmodel.Scan {
			scanTPar = pl.TPar
		}
	}
	if res.PhaseSimulated[0] < scanTPar*0.99 {
		t.Fatalf("phase 0 simulated %g below producer T^par %g",
			res.PhaseSimulated[0], scanTPar)
	}
}

func TestRatioEdgeCases(t *testing.T) {
	r := &Result{}
	if r.Ratio() != 1 {
		t.Fatalf("empty ratio = %g", r.Ratio())
	}
	r.Simulated = 1
	if !math.IsInf(r.Ratio(), 1) {
		t.Fatalf("ratio with zero analytic = %g", r.Ratio())
	}
}

func TestStepsDefault(t *testing.T) {
	if (Config{}).steps() != 2000 || (Config{Steps: 10}).steps() != 10 {
		t.Fatal("step defaulting wrong")
	}
}

func TestFinerStepsConverge(t *testing.T) {
	ov := resource.MustOverlap(0.3)
	s := schedule(t, join(leaf("A", 30000), leaf("B", 10000)), 6, 0.3)
	coarse, err := Simulate(ov, s, Config{Steps: 200})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := Simulate(ov, s, Config{Steps: 8000})
	if err != nil {
		t.Fatal(err)
	}
	// Finer resolution must not move the result by more than the coarse
	// step size would suggest.
	if math.Abs(coarse.Simulated-fine.Simulated) > coarse.Analytic*0.05 {
		t.Fatalf("no convergence: coarse %g, fine %g", coarse.Simulated, fine.Simulated)
	}
}

func BenchmarkPipeSim(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	p := query.MustRandom(r, query.DefaultGenConfig(10))
	tt := plan.MustNewTaskTree(plan.MustExpand(p))
	ov := resource.MustOverlap(0.5)
	s, err := sched.TreeScheduler{
		Model: costmodel.Default(), Overlap: ov, P: 16, F: 0.7,
	}.Schedule(tt)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(ov, s, Config{Steps: 500}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPipelineSimulation(t *testing.T) {
	pl := query.MustRandom(rand.New(rand.NewSource(7)), query.DefaultGenConfig(6))
	s := schedule(t, pl, 8, 0.5)
	res, err := Simulate(resource.MustOverlap(0.5), s, Config{Steps: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Simulated < res.Analytic-1e-9 {
		t.Fatalf("pipeline sim %g below analytic %g", res.Simulated, res.Analytic)
	}
	if res.Ratio() > 1.8 {
		t.Fatalf("pipeline abstraction error ratio %g implausible", res.Ratio())
	}
}
