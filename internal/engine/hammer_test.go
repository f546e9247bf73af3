package engine

import (
	"runtime"
	"sync/atomic"
	"testing"

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

// TestDegree512JoinMatchesReference runs a whole join at degree 512 —
// partitions far smaller than the key domain, forcing the
// open-addressing table fallback — and checks the flat path still
// mirrors the reference executor exactly.
func TestDegree512JoinMatchesReference(t *testing.T) {
	const degree = 512
	p := join(leaf("A", 30000), leaf("B", 8000))
	ds := MustGenerate(p, 11)
	s := degreeSchedule(t, p, degree)

	ref := reference(testEngine(true))
	repRef, err := ref.Run(ds, s)
	if err != nil {
		t.Fatal(err)
	}
	repFlat, err := testEngine(true).Run(ds, s)
	if err != nil {
		t.Fatal(err)
	}
	if repRef.ResultTuples != 30000 || repFlat.ResultTuples != repRef.ResultTuples {
		t.Fatalf("cardinality mismatch: ref %d, flat %d", repRef.ResultTuples, repFlat.ResultTuples)
	}
	if repRef.Measured != repFlat.Measured {
		t.Fatalf("measured diverges at degree %d: ref %g, flat %g",
			degree, repRef.Measured, repFlat.Measured)
	}
}
