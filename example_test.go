package mdrs_test

import (
	"fmt"
	"math/rand"

	"mdrs"
)

// ExampleScheduleQuery schedules a small hand-built plan end to end.
func ExampleScheduleQuery() {
	lineitem := &mdrs.PlanNode{
		Relation: &mdrs.Relation{Name: "lineitem", Tuples: 60000}, Tuples: 60000,
	}
	orders := &mdrs.PlanNode{
		Relation: &mdrs.Relation{Name: "orders", Tuples: 15000}, Tuples: 15000,
	}
	join := &mdrs.PlanNode{Outer: lineitem, Inner: orders, Tuples: 60000}

	s, err := mdrs.ScheduleQuery(join, mdrs.Options{Sites: 16, Epsilon: 0.5, F: 0.7})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("phases: %d\n", len(s.Phases))
	fmt.Printf("response: %.2f s\n", s.Response)
	// Output:
	// phases: 2
	// response: 4.48 s
}

// ExampleOperatorSchedule packs complementary resource demands onto one
// site: a CPU-bound and a disk-bound operator overlap perfectly under
// full resource overlap (ε = 1).
func ExampleOperatorSchedule() {
	ov, _ := mdrs.NewOverlap(1)
	ops := []*mdrs.SchedOp{
		{ID: 0, Work: []mdrs.WorkRun{{N: 1, W: mdrs.Vector{10, 0, 0}}}}, // CPU-bound
		{ID: 1, Work: []mdrs.WorkRun{{N: 1, W: mdrs.Vector{0, 10, 0}}}}, // disk-bound
	}
	res, _ := mdrs.OperatorSchedule(1, 3, ov, ops)
	fmt.Printf("both on one site in %.0f s\n", res.Response)
	// Output:
	// both on one site in 10 s
}

// ExampleOptBound compares a schedule against the paper's lower bound.
func ExampleOptBound() {
	r := rand.New(rand.NewSource(7))
	plan := mdrs.MustRandomPlan(r, mdrs.DefaultGenConfig(10))
	o := mdrs.Options{Sites: 20, Epsilon: 0.5, F: 0.7}
	s, _ := mdrs.ScheduleQuery(plan, o)
	lb, _ := mdrs.OptBound(plan, o)
	fmt.Printf("within %.2fx of the optimal lower bound\n", s.Response/lb)
	// Output:
	// within 1.04x of the optimal lower bound
}

// ExampleVerifySchedule validates a schedule's structural invariants.
func ExampleVerifySchedule() {
	r := rand.New(rand.NewSource(1))
	plan := mdrs.MustRandomPlan(r, mdrs.DefaultGenConfig(5))
	s, _ := mdrs.ScheduleQuery(plan, mdrs.Options{Sites: 8, Epsilon: 0.5, F: 0.7})
	ov, _ := mdrs.NewOverlap(0.5)
	fmt.Println(mdrs.VerifySchedule(s, ov))
	// Output:
	// <nil>
}

// ExampleGenerateData executes a scheduled join over synthetic data.
func ExampleGenerateData() {
	a := &mdrs.PlanNode{Relation: &mdrs.Relation{Name: "A", Tuples: 3000}, Tuples: 3000}
	b := &mdrs.PlanNode{Relation: &mdrs.Relation{Name: "B", Tuples: 1000}, Tuples: 1000}
	plan := &mdrs.PlanNode{Outer: a, Inner: b, Tuples: 3000}

	ds, _ := mdrs.GenerateData(plan, 42)
	s, _ := mdrs.ScheduleQuery(plan, mdrs.Options{Sites: 4, Epsilon: 0.5, F: 0.7})
	ov, _ := mdrs.NewOverlap(0.5)
	rep, _ := mdrs.Engine{Model: mdrs.DefaultCostModel(), Overlap: ov}.Run(ds, s)
	fmt.Printf("result: %d tuples\n", rep.ResultTuples)
	// Output:
	// result: 3000 tuples
}
