package engine

import (
	"strings"
	"testing"

	"mdrs/internal/costmodel"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
	"mdrs/internal/vector"
)

func TestRunRejectsBadSchedules(t *testing.T) {
	p := join(leaf("A", 100), leaf("B", 50))
	ds := MustGenerate(p, 1)
	eng := testEngine()

	// Placement without an operator.
	s := &sched.Schedule{P: 2, Phases: []*sched.PhaseSchedule{
		{Placements: []*sched.OpPlacement{{Op: nil}}},
	}}
	if _, err := eng.Run(ds, s); err == nil {
		t.Error("nil-operator placement accepted")
	}

	// No root operator at all.
	op := &plan.Operator{ID: 0, Name: "x", Consumer: &plan.Operator{}}
	s = &sched.Schedule{P: 2, Phases: []*sched.PhaseSchedule{
		{Placements: []*sched.OpPlacement{{
			Op: op, Degree: 1, Sites: []int{0},
			Work: []sched.WorkRun{{N: 1, W: vector.Of(1, 1, 1)}},
		}}},
	}}
	if _, err := eng.Run(ds, s); err == nil {
		t.Error("rootless schedule accepted")
	}

	// Negative operator and join IDs, which would index the run state.
	for _, c := range []struct {
		kind costmodel.OpKind
		set  func(*plan.Operator)
		want string
	}{
		{costmodel.Probe, func(op *plan.Operator) { op.ID = -1 }, "operator ID -1 < 0"},
		{costmodel.Build, func(op *plan.Operator) { op.JoinID = -1 }, "join ID -1 < 0"},
	} {
		s = scheduleFor(t, p, 2)
		c.set(placedOp(t, s, c.kind))
		if _, err := eng.Run(ds, s); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v with a negative ID: got %v, want %q", c.kind, err, c.want)
		}
	}

	// No dataset.
	if _, err := eng.Run(nil, scheduleFor(t, p, 2)); err == nil || err.Error() != "engine: nil dataset" {
		t.Errorf("nil dataset: got %v", err)
	}
}

func TestRunRejectsInvalidParams(t *testing.T) {
	p := join(leaf("A", 100), leaf("B", 50))
	ds := MustGenerate(p, 1)
	s := scheduleFor(t, p, 2)
	bad := Engine{Overlap: resource.MustOverlap(0.5)} // zero Model
	if _, err := bad.Run(ds, s); err == nil {
		t.Fatal("zero cost model accepted")
	}
}

func TestSingleRelationQueryExecutes(t *testing.T) {
	// The degenerate 0-join plan: one scan, streamed to the client.
	p := leaf("R", 1234)
	ds := MustGenerate(p, 5)
	s := scheduleFor(t, p, 4)
	rep, err := testEngine().Run(ds, s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResultTuples != 1234 {
		t.Fatalf("result = %d, want 1234", rep.ResultTuples)
	}
	if len(rep.JoinResults) != 0 {
		t.Fatalf("join results on a joinless plan: %v", rep.JoinResults)
	}
}

func TestTinyRelations(t *testing.T) {
	// Single-tuple relations exercise all the ceil/partition boundaries.
	p := join(leaf("A", 1), leaf("B", 1))
	ds := MustGenerate(p, 2)
	s := scheduleFor(t, p, 3)
	rep, err := testEngine().Run(ds, s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResultTuples != 1 {
		t.Fatalf("result = %d, want 1", rep.ResultTuples)
	}
}

func TestMismatchedDatasetFails(t *testing.T) {
	// Scheduling one plan but executing another's dataset must error
	// (the key columns don't exist), not silently mis-join.
	pA := join(leaf("A", 500), leaf("B", 200))
	pB := join(leaf("C", 500), leaf("D", 200))
	dsB := MustGenerate(pB, 3)
	sA := scheduleFor(t, pA, 3)
	if _, err := testEngine().Run(dsB, sA); err == nil {
		t.Fatal("foreign dataset accepted")
	}
}

func TestDeepPipelineExecution(t *testing.T) {
	// A right-deep chain exercises probe-feeds-build pipelines across
	// many phases.
	p := leaf("R0", 800)
	for i := 1; i <= 5; i++ {
		p = &query.PlanNode{
			Outer:  leaf("x", 700+i),
			Inner:  p,
			Tuples: max(700+i, p.Tuples),
		}
	}
	ds := MustGenerate(p, 7)
	s := scheduleFor(t, p, 4)
	rep, err := testEngine().Run(ds, s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResultTuples != p.Tuples {
		t.Fatalf("result = %d, want %d", rep.ResultTuples, p.Tuples)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestMetersMatchCostModelOnUniformData(t *testing.T) {
	// With perfectly uniform keys and degree 1, the engine's metered
	// work must equal the cost model's prediction exactly.
	p := join(leaf("A", 4000), leaf("B", 2000))
	ds := MustGenerate(p, 9)
	tt := plan.MustNewTaskTree(plan.MustExpand(p))
	s, err := sched.TreeScheduler{
		Model:   costmodel.Default(),
		Overlap: resource.MustOverlap(0.5),
		P:       1, // sequential: no partitioning skew possible
		F:       0.7,
	}.Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := testEngine().Run(ds, s)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := rep.Measured / rep.Predicted; ratio < 0.999 || ratio > 1.001 {
		t.Fatalf("sequential execution deviates: measured %g, predicted %g",
			rep.Measured, rep.Predicted)
	}
}

// TestResultContentIsExactlyTheCarrierRelation verifies join CONTENT,
// not just cardinality: under the FK discipline each larger-side tuple
// matches exactly one smaller-side tuple, so the join result must be
// exactly the carrier relation's rows, each appearing once — the
// carrier leaf's whole stream, rows 0..n-1.
func TestResultContentIsExactlyTheCarrierRelation(t *testing.T) {
	for _, sizes := range [][2]int{{1500, 600}, {600, 1500}} {
		p := join(leaf("A", sizes[0]), leaf("B", sizes[1]))
		ds := MustGenerate(p, 13)
		tt := plan.MustNewTaskTree(plan.MustExpand(p))
		s, err := sched.TreeScheduler{
			Model:   costmodel.Default(),
			Overlap: resource.MustOverlap(0.5),
			P:       5, F: 0.7,
		}.Schedule(tt)
		if err != nil {
			t.Fatal(err)
		}
		// Re-run the dataflow manually to inspect the root output.
		eng := testEngine()
		st := new(runState)
		st.reset(4, 1) // four operators, one join
		rep := &Report{JoinResults: map[int]int{}}
		for _, ph := range s.Phases {
			for _, pl := range ph.Placements {
				if _, err := eng.runOperator(pl, ds, st, rep); err != nil {
					t.Fatal(err)
				}
			}
		}
		var root *plan.Operator
		for _, ph := range s.Phases {
			for _, pl := range ph.Placements {
				if pl.Op.Consumer == nil {
					root = pl.Op
				}
			}
		}
		result := st.outputs[root.ID]
		carrier := p.Outer
		if p.Inner.Tuples > p.Outer.Tuples {
			carrier = p.Inner
		}
		carrierIdx, err := ds.LeafIndex(carrier)
		if err != nil {
			t.Fatal(err)
		}
		if want := (stream{leaf: carrierIdx, n: carrier.Tuples}); result != want {
			t.Fatalf("result stream %+v, want the carrier leaf whole, %+v", result, want)
		}
	}
}

func TestMaterializedExecution(t *testing.T) {
	// A materialized plan executes through the Store operator; its
	// response exceeds the streaming plan's (extra disk writes).
	p := join(leaf("A", 5000), leaf("B", 2000))
	ds := MustGenerate(p, 17)

	ot, err := plan.ExpandMaterialized(p)
	if err != nil {
		t.Fatal(err)
	}
	tt := plan.MustNewTaskTree(ot)
	ts := sched.TreeScheduler{
		Model:   costmodel.Default(),
		Overlap: resource.MustOverlap(0.5),
		P:       6, F: 0.7,
	}
	sMat, err := ts.Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := testEngine().Run(ds, sMat)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResultTuples != 5000 {
		t.Fatalf("materialized result = %d, want 5000", rep.ResultTuples)
	}

	sStream := scheduleFor(t, p, 6)
	if sMat.Response <= sStream.Response {
		t.Fatalf("materialization free: %g vs streaming %g",
			sMat.Response, sStream.Response)
	}
}

func TestSkewedGenerationStillDeterministic(t *testing.T) {
	p := join(leaf("A", 1000), leaf("B", 400))
	d1, err := GenerateOpts(p, GenOptions{Seed: 4, SkewS: 1.4})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := GenerateOpts(p, GenOptions{Seed: 4, SkewS: 1.4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		tp := Tuple{Leaf: 0, Row: int32(i % 1000)}
		k1, err := d1.Key(tp, p)
		if err != nil {
			t.Fatal(err)
		}
		k2, err := d2.Key(tp, p)
		if err != nil {
			t.Fatal(err)
		}
		if k1 != k2 {
			t.Fatalf("row %d: %d vs %d", i, k1, k2)
		}
	}
}
