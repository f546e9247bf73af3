package mdrs_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"mdrs"
)

// TestEndToEndPipeline drives the whole system through the public API:
// generate a plan, schedule it, verify it, bound it and execute it on
// real data. The same plan's SYNCHRONOUS and fluid-simulator checks
// live with those packages in internal/repro.
func TestEndToEndPipeline(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	plan := mdrs.MustRandomPlan(r, mdrs.GenConfig{Joins: 8, MinTuples: 2000, MaxTuples: 20000})
	o := mdrs.Options{Sites: 16, Epsilon: 0.5, F: 0.7}

	tree, err := mdrs.ScheduleQuery(plan, o)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := mdrs.OptBound(plan, o)
	if err != nil {
		t.Fatal(err)
	}

	if tree.Response < bound-1e-9 {
		t.Fatalf("TreeSchedule %g below OPTBOUND %g", tree.Response, bound)
	}
	ov, err := mdrs.NewOverlap(o.Epsilon)
	if err != nil {
		t.Fatal(err)
	}
	if err := mdrs.VerifySchedule(tree, ov); err != nil {
		t.Fatalf("TreeSchedule failed verification: %v", err)
	}

	// Execute the schedule on synthetic data.
	ds, err := mdrs.GenerateData(plan, 7)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mdrs.Engine{Model: mdrs.DefaultCostModel(), Overlap: ov}.Run(ds, tree)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResultTuples != plan.Tuples {
		t.Fatalf("engine result %d != optimizer cardinality %d", rep.ResultTuples, plan.Tuples)
	}
}

func TestOptionsValidation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	plan := mdrs.MustRandomPlan(r, mdrs.DefaultGenConfig(3))
	cases := []mdrs.Options{
		{Sites: 0, Epsilon: 0.5, F: 0.7},
		{Sites: 4, Epsilon: -1, F: 0.7},
		{Sites: 4, Epsilon: 0.5, F: -1},
	}
	for i, o := range cases {
		if _, err := mdrs.ScheduleQuery(plan, o); err == nil {
			t.Errorf("case %d: ScheduleQuery accepted", i)
		}
	}
}

// A non-finite cost parameter is an error at every entry point, not a
// panic deep in the degree computation (NaN DiskPageTime) or a schedule
// of zero-cost CPU work (+Inf MIPS).
func TestNonFiniteParamsRejected(t *testing.T) {
	plan := mdrs.MustRandomPlan(rand.New(rand.NewSource(1)), mdrs.DefaultGenConfig(4))
	_, tt, err := mdrs.PrepareQuery(plan)
	if err != nil {
		t.Fatal(err)
	}
	ov, _ := mdrs.NewOverlap(0.5)
	nanDisk := mdrs.DefaultParams()
	nanDisk.DiskPageTime = math.NaN()
	infCPU := mdrs.DefaultParams()
	infCPU.MIPS = math.Inf(1)
	for _, p := range []mdrs.Params{nanDisk, infCPU} {
		if _, err := mdrs.ScheduleQuery(plan, mdrs.Options{Params: p, Sites: 8, Epsilon: 0.5, F: 0.7}); err == nil {
			t.Errorf("ScheduleQuery accepted %+v", p)
		}
		ts := mdrs.TreeScheduler{Model: mdrs.CostModel{Params: p}, Overlap: ov, P: 8, F: 0.7}
		if _, err := ts.PhaseBound(tt); err == nil {
			t.Errorf("PhaseBound accepted %+v", p)
		}
	}
}

func TestCustomParamsFlowThrough(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	plan := mdrs.MustRandomPlan(r, mdrs.DefaultGenConfig(4))
	fast := mdrs.DefaultParams()
	fast.MIPS = 100 // 100x faster CPUs shrink response
	slowOpts := mdrs.Options{Sites: 8, Epsilon: 0.5, F: 0.7}
	fastOpts := mdrs.Options{Params: fast, Sites: 8, Epsilon: 0.5, F: 0.7}
	slow, err := mdrs.ScheduleQuery(plan, slowOpts)
	if err != nil {
		t.Fatal(err)
	}
	quick, err := mdrs.ScheduleQuery(plan, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if quick.Response >= slow.Response {
		t.Fatalf("faster CPU did not reduce response: %g vs %g",
			quick.Response, slow.Response)
	}
}

func TestOperatorScheduleFacade(t *testing.T) {
	ov, err := mdrs.NewOverlap(1)
	if err != nil {
		t.Fatal(err)
	}
	ops := []*mdrs.SchedOp{
		{ID: 0, Work: []mdrs.WorkRun{{N: 1, W: mdrs.Vector{10, 0}}}},
		{ID: 1, Work: []mdrs.WorkRun{{N: 1, W: mdrs.Vector{0, 10}}}},
	}
	res, err := mdrs.OperatorSchedule(1, 2, ov, ops)
	if err != nil {
		t.Fatal(err)
	}
	// Complementary vectors overlap perfectly on one site under ε = 1.
	if math.Abs(res.Response-10) > 1e-9 {
		t.Fatalf("response = %g, want 10", res.Response)
	}
	lb := mdrs.ScheduleLowerBound(1, ov, ops)
	if res.Response < lb-1e-9 {
		t.Fatalf("response %g below LB %g", res.Response, lb)
	}
}

// TestSchedulingServiceFacade drives the concurrent scheduling service
// through the public API: submit a plan's task tree, check the result
// matches a direct end-to-end schedule, and check the typed errors and
// the ctx-aware entry point are re-exported.
func TestSchedulingServiceFacade(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	plan := mdrs.MustRandomPlan(r, mdrs.DefaultGenConfig(6))
	o := mdrs.Options{Sites: 12, Epsilon: 0.5, F: 0.7}

	ov, err := mdrs.NewOverlap(o.Epsilon)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := mdrs.NewSchedulingService(mdrs.ServeConfig{
		Scheduler: mdrs.TreeScheduler{
			Model:   mdrs.DefaultCostModel(),
			Overlap: ov,
			P:       o.Sites,
			F:       o.F,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	_, tt, err := mdrs.PrepareQuery(plan)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Schedule(context.Background(), tt)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := mdrs.ScheduleQuery(plan, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Response != direct.Response {
		t.Fatalf("served response %g != direct %g", res.Schedule.Response, direct.Response)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mdrs.ScheduleQueryCtx(ctx, plan, o); !errors.Is(err, context.Canceled) {
		t.Fatalf("ScheduleQueryCtx: got %v, want context.Canceled", err)
	}
	if mdrs.ErrOverloaded == nil || mdrs.ErrServiceClosed == nil {
		t.Fatal("typed service errors not exported")
	}
	svc.Close()
	if _, err := svc.Schedule(context.Background(), tt); !errors.Is(err, mdrs.ErrServiceClosed) {
		t.Fatalf("closed service: got %v, want ErrServiceClosed", err)
	}
}

func TestPlanSearchFacade(t *testing.T) {
	o := mdrs.Options{Sites: 16, Epsilon: 0.5, F: 0.7}
	s, err := mdrs.NewPlanSearch(o, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	rels, err := mdrs.RandomRelations(r, 4, 1_000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Best(r, rels)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Systematic {
		t.Fatal("3 joins should enumerate systematically")
	}
	if int64(res.Pruned+res.Scheduled+res.WarmHits) != res.Enumerated {
		t.Fatalf("ledger %d+%d+%d != %d enumerated", res.Pruned, res.Scheduled, res.WarmHits, res.Enumerated)
	}
	var c mdrs.PlanCandidate = res.Best
	if c.Schedule == nil || c.Schedule.Response <= 0 {
		t.Fatal("winner has no schedule")
	}
	if res.Improvement() < 1 {
		t.Fatalf("improvement %g < 1", res.Improvement())
	}

	plans, err := mdrs.EnumerateBushyPlans(rels)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(plans)) != res.Enumerated {
		t.Fatalf("EnumerateBushyPlans %d != enumerated %d", len(plans), res.Enumerated)
	}

	if _, err := s.Best(nil, rels); !errors.Is(err, mdrs.ErrPlanSearchNilRand) {
		t.Fatalf("nil rand: got %v, want ErrPlanSearchNilRand", err)
	}
	if _, err := s.Best(r, rels[:1]); !errors.Is(err, mdrs.ErrPlanSearchTooFewRelations) {
		t.Fatalf("1 relation: got %v, want ErrPlanSearchTooFewRelations", err)
	}
	if _, err := mdrs.NewPlanSearch(mdrs.Options{Sites: 0, Epsilon: 0.5, F: 0.7}, 8); err == nil {
		t.Fatal("non-positive site count accepted")
	}
}
