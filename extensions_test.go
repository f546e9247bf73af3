package mdrs_test

import (
	"math"
	"math/rand"
	"testing"

	"mdrs"
	"mdrs/internal/contention"
	"mdrs/internal/memsched"
	"mdrs/internal/pipesim"
)

// Integration tests for the extension subsystems: memory-aware
// scheduling, contention pricing and pipeline simulation (the paper's
// open problems, imported directly), then plan shapes, the best-of-K
// plan search and the other system entry points through the public
// facade.

func TestMemoryScheduler(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	plan := mdrs.MustRandomPlan(r, mdrs.DefaultGenConfig(10))
	_, tt, err := mdrs.PrepareQuery(plan)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := mdrs.NewOverlap(0.5)
	if err != nil {
		t.Fatal(err)
	}
	tight := memsched.Scheduler{
		Model: mdrs.DefaultCostModel(), Overlap: ov, P: 12, F: 0.7,
		MemoryBytes: 1 << 20,
	}
	res, err := tight.Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSpilledBytes == 0 {
		t.Fatal("1 MB sites did not spill")
	}
	ample := tight
	ample.MemoryBytes = math.Inf(1)
	resAmple, err := ample.Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	if resAmple.Response >= res.Response {
		t.Fatalf("ample memory %g not faster than tight %g",
			resAmple.Response, res.Response)
	}
}

func TestContentionPricing(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	plan := mdrs.MustRandomPlan(r, mdrs.DefaultGenConfig(8))
	o := mdrs.Options{Sites: 10, Epsilon: 0.5, F: 0.7}
	s, err := mdrs.ScheduleQuery(plan, o)
	if err != nil {
		t.Fatal(err)
	}
	ov, _ := mdrs.NewOverlap(0.5)
	base, err := contention.EvalSchedule(ov, nil, s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(base-s.Response) > 1e-9 {
		t.Fatalf("nil penalty evaluation %g != response %g", base, s.Response)
	}
	heavy, err := contention.EvalSchedule(ov, contention.DiskOnly(mdrs.Dims, 10), s)
	if err != nil {
		t.Fatal(err)
	}
	if heavy <= base {
		t.Fatalf("γ=10 evaluation %g did not exceed base %g", heavy, base)
	}
}

func TestPipelineSimulation(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	plan := mdrs.MustRandomPlan(r, mdrs.DefaultGenConfig(6))
	o := mdrs.Options{Sites: 8, Epsilon: 0.5, F: 0.7}
	s, err := mdrs.ScheduleQuery(plan, o)
	if err != nil {
		t.Fatal(err)
	}
	ov, _ := mdrs.NewOverlap(0.5)
	res, err := pipesim.Simulate(ov, s, pipesim.Config{Steps: 500})
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

func TestFacadeShapedPlans(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for _, shape := range []mdrs.Shape{mdrs.RandomBushy, mdrs.LeftDeep, mdrs.RightDeep, mdrs.Balanced} {
		p, err := mdrs.RandomShapedPlan(r, mdrs.DefaultGenConfig(7), shape)
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		if p.Joins() != 7 {
			t.Fatalf("%v: joins = %d", shape, p.Joins())
		}
		if _, err := mdrs.ScheduleQuery(p, mdrs.Options{Sites: 8, Epsilon: 0.5, F: 0.7}); err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
	}
}

func TestFacadePhasePolicy(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	plan := mdrs.MustRandomPlan(r, mdrs.DefaultGenConfig(12))
	_, tt, err := mdrs.PrepareQuery(plan)
	if err != nil {
		t.Fatal(err)
	}
	ov, _ := mdrs.NewOverlap(0.5)
	ts := mdrs.TreeScheduler{Model: mdrs.DefaultCostModel(), Overlap: ov, P: 10, F: 0.7}
	minShelf, err := ts.Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	ts.Policy = mdrs.EarliestShelf
	earliest, err := ts.Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	if len(minShelf.Phases) != len(earliest.Phases) {
		t.Fatalf("phase counts differ: %d vs %d",
			len(minShelf.Phases), len(earliest.Phases))
	}
	if earliest.Response <= 0 {
		t.Fatal("earliest-shelf schedule empty")
	}
}

func TestFacadePlanSearch(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	ov, _ := mdrs.NewOverlap(0.5)
	search := mdrs.PlanSearch{
		Model: mdrs.DefaultCostModel(), Overlap: ov, P: 12, F: 0.7, Candidates: 6,
	}
	rels := make([]*mdrs.Relation, 9)
	for i := range rels {
		rels[i] = &mdrs.Relation{Name: string(rune('A' + i)), Tuples: 1000 * (i + 1)}
	}
	res, err := search.Best(r, rels)
	if err != nil {
		t.Fatal(err)
	}
	if res.Improvement() < 1 {
		t.Fatalf("improvement %g < 1", res.Improvement())
	}
	if res.Best.Plan.Joins() != 8 {
		t.Fatalf("best plan has %d joins", res.Best.Plan.Joins())
	}
}

func TestFacadeBatchScheduling(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	ov, _ := mdrs.NewOverlap(0.5)
	ts := mdrs.TreeScheduler{Model: mdrs.DefaultCostModel(), Overlap: ov, P: 20, F: 0.7}
	var trees []*mdrs.TaskTree
	serial := 0.0
	for q := 0; q < 3; q++ {
		plan := mdrs.MustRandomPlan(r, mdrs.DefaultGenConfig(8))
		_, tt, err := mdrs.PrepareQuery(plan)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ts.Schedule(tt)
		if err != nil {
			t.Fatal(err)
		}
		serial += s.Response
		trees = append(trees, tt)
	}
	batch, err := ts.ScheduleBatch(trees)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Response >= serial {
		t.Fatalf("batch %g not better than serial %g", batch.Response, serial)
	}
}

func TestFacadeDeclustering(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	ov, _ := mdrs.NewOverlap(0.5)
	ts := mdrs.TreeScheduler{Model: mdrs.DefaultCostModel(), Overlap: ov, P: 10, F: 0.7}
	plan := mdrs.MustRandomPlan(r, mdrs.DefaultGenConfig(6))
	_, tt, err := mdrs.PrepareQuery(plan)
	if err != nil {
		t.Fatal(err)
	}
	homes, err := ts.RandomDeclustering(r, tt)
	if err != nil {
		t.Fatal(err)
	}
	if len(homes) != 7 { // one home per scan (J+1 relations)
		t.Fatalf("declustered %d scans, want 7", len(homes))
	}
	ts.Homes = homes
	if _, err := ts.Schedule(tt); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeScheduleStatsAndRendering(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	plan := mdrs.MustRandomPlan(r, mdrs.DefaultGenConfig(5))
	s, err := mdrs.ScheduleQuery(plan, mdrs.Options{Sites: 6, Epsilon: 0.5, F: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	st := mdrs.ScheduleStats(s)
	if st.Clones == 0 || st.Utilization[mdrs.CPU] <= 0 {
		t.Fatalf("stats: %+v", st)
	}
	data, err := mdrs.EncodeScheduleJSON(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty JSON")
	}
}
