package mdrs_test

import (
	"math/rand"
	"testing"

	"mdrs"
)

// Integration tests for the system's extensions through the public
// facade: plan shapes, phase policies, the best-of-K plan search, batch
// scheduling, declustering and schedule statistics.

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
