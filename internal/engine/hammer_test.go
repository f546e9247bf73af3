package engine

import (
	"reflect"
	"testing"

	"mdrs/internal/obs"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/sched"
)

// degreeSchedule hand-builds a one-phase schedule placing every
// operator of the expanded plan at the given degree — degrees far above
// what the tree scheduler would ever pick, to hammer the clone driver.
// Operators land in ID order (a valid pipeline topological order).
func degreeSchedule(t *testing.T, p *query.PlanNode, degree int) *sched.Schedule {
	t.Helper()
	ot := plan.MustExpand(p)
	plan.MustNewTaskTree(ot) // back-fills each operator's Task pointer
	sites := make([]int, degree)
	for i := range sites {
		sites[i] = i
	}
	ph := &sched.PhaseSchedule{}
	for _, op := range ot.Ops {
		ph.Placements = append(ph.Placements,
			&sched.OpPlacement{Op: op, Degree: degree, Sites: sites})
	}
	return &sched.Schedule{P: degree, Phases: []*sched.PhaseSchedule{ph}}
}

// TestDegree512JoinMatchesReference runs whole joins at degree 512 over
// a key domain of 10⁵ — partitions of some two hundred tuples, for
// which even a bit per domain key is too much, forcing the
// open-addressing fallback (filled by the build under the outer
// carrier, by the probe under the inner one) — and checks the flat path
// still mirrors the reference executor exactly.
func TestDegree512JoinMatchesReference(t *testing.T) {
	const degree = 512
	for name, p := range map[string]*query.PlanNode{
		"outer carrier": join(leaf("A", 101000), leaf("B", 100000)),
		"inner carrier": join(leaf("A", 100000), leaf("B", 101000)),
	} {
		ds := MustGenerate(p, 11)
		s := degreeSchedule(t, p, degree)

		ref := reference(testEngine())
		repRef, err := ref.Run(ds, s)
		if err != nil {
			t.Fatal(err)
		}
		met := obs.NewMetrics()
		flat := testEngine()
		flat.Rec = met
		repFlat, err := flat.Run(ds, s)
		if err != nil {
			t.Fatal(err)
		}
		if repRef.ResultTuples != 101000 || repFlat.ResultTuples != repRef.ResultTuples {
			t.Fatalf("%s: cardinality mismatch: ref %d, flat %d", name, repRef.ResultTuples, repFlat.ResultTuples)
		}
		if !reflect.DeepEqual(repRef, repFlat) {
			t.Fatalf("%s: reports diverge at degree %d:\nref:  %+v\nflat: %+v", name, degree, repRef, repFlat)
		}
		if c := met.Snapshot().Counters; c["engine.tables_oa"] != degree {
			t.Fatalf("%s: %d of %d key sets open-addressing (%d bits); the test no longer reaches the fallback",
				name, c["engine.tables_oa"], degree, c["engine.tables_bits"])
		}
	}
}
