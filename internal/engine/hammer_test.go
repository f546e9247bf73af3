package engine

import (
	"reflect"
	"runtime"
	"sync/atomic"
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

// TestParallelCloneGoroutinesAreBounded pins the eachClone fix: a
// degree-512 operator in Parallel mode must run its clones through the
// bounded internal/par pool (clamped to GOMAXPROCS) instead of the 512
// goroutines the engine used to spawn. The failClone hook samples the
// live goroutine count from inside the clone bodies. Run under -race
// by make race.
func TestParallelCloneGoroutinesAreBounded(t *testing.T) {
	const degree = 512
	lp := leaf("R", 64000)
	ds := MustGenerate(lp, 3)
	s := degreeSchedule(t, lp, degree)

	var maxG int64
	base := runtime.NumGoroutine()
	eng := testEngine(true)
	eng.failClone = func(op *plan.Operator, clone int) error {
		g := int64(runtime.NumGoroutine())
		for {
			cur := atomic.LoadInt64(&maxG)
			if g <= cur || atomic.CompareAndSwapInt64(&maxG, cur, g) {
				break
			}
		}
		return nil
	}
	rep, err := eng.Run(ds, s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResultTuples != 64000 {
		t.Fatalf("degree-%d scan produced %d tuples, want 64000", degree, rep.ResultTuples)
	}

	// The pool runs at most GOMAXPROCS workers; allow slack for the
	// runtime's own goroutines and whatever the test harness keeps
	// around, but nothing near the old one-per-clone blow-up.
	bound := int64(base + runtime.GOMAXPROCS(0) + 16)
	if got := atomic.LoadInt64(&maxG); got > bound {
		t.Fatalf("observed %d live goroutines at degree %d, want <= %d", got, degree, bound)
	}
}

// TestDegree512JoinMatchesReference runs whole joins at degree 512 over
// a key domain of 10⁵ — partitions of some two hundred tuples, for
// which even a bit per domain key is too much, forcing the
// open-addressing fallback (presence-only under the outer carrier, with
// rows under the inner one) — and checks the flat path still mirrors
// the reference executor exactly.
func TestDegree512JoinMatchesReference(t *testing.T) {
	const degree = 512
	for name, p := range map[string]*query.PlanNode{
		"outer carrier": join(leaf("A", 101000), leaf("B", 100000)),
		"inner carrier": join(leaf("A", 100000), leaf("B", 101000)),
	} {
		ds := MustGenerate(p, 11)
		s := degreeSchedule(t, p, degree)

		ref := reference(testEngine(true))
		repRef, err := ref.Run(ds, s)
		if err != nil {
			t.Fatal(err)
		}
		met := obs.NewMetrics()
		flat := testEngine(true)
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
			t.Fatalf("%s: %d of %d tables open-addressing (%d bits, %d rank); the test no longer reaches the fallback",
				name, c["engine.tables_oa"], degree, c["engine.tables_bits"], c["engine.tables_rank"])
		}
	}
}
