package engine

import (
	"fmt"
	"strings"
	"testing"

	"mdrs/internal/costmodel"
	"mdrs/internal/obs"
	"mdrs/internal/plan"
	"mdrs/internal/sched"
)

// failCloneOn returns a fault that fails the given clone of every
// operator of the given kind.
func failCloneOn(kind costmodel.OpKind, clone int) func(*plan.Operator, int) error {
	return func(op *plan.Operator, k int) error {
		if op.Kind == kind && k == clone {
			return fmt.Errorf("injected fault in %s clone %d", op.Name, k)
		}
		return nil
	}
}

// TestScanCloneErrorSurfaces is the regression test for the dropped
// eachClone error: a failing Scan clone used to be silently ignored
// (the result cardinality check would then misfire or, worse, pass).
// It must surface as the run's error.
func TestScanCloneErrorSurfaces(t *testing.T) {
	p := join(leaf("A", 2000), leaf("B", 500))
	ds := MustGenerate(p, 3)
	s := scheduleFor(t, p, 8)
	e := testEngine()
	e.failClone = failCloneOn(costmodel.Scan, 0)
	_, err := e.Run(ds, s)
	if err == nil {
		t.Fatal("injected scan clone fault was swallowed")
	}
	if !strings.Contains(err.Error(), "injected fault") ||
		!strings.Contains(err.Error(), "scan(") {
		t.Fatalf("error lost the clone context: %v", err)
	}
}

// TestEveryArmSurfacesCloneErrors injects a failure into each operator
// kind in turn; no arm may swallow it.
func TestEveryArmSurfacesCloneErrors(t *testing.T) {
	p := join(join(leaf("A", 3000), leaf("B", 1200)), leaf("C", 900))
	ds := MustGenerate(p, 7)
	ot, err := plan.ExpandMaterialized(p)
	if err != nil {
		t.Fatal(err)
	}
	tt := plan.MustNewTaskTree(ot)
	s, err := sched.TreeScheduler{
		Model:   costmodel.Default(),
		Overlap: testEngine().Overlap,
		P:       8,
		F:       0.7,
	}.Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []costmodel.OpKind{
		costmodel.Scan, costmodel.Build, costmodel.Probe, costmodel.Store,
	} {
		e := testEngine()
		e.failClone = failCloneOn(kind, 0)
		if _, err := e.Run(ds, s); err == nil {
			t.Fatalf("kind=%v: clone fault swallowed", kind)
		}
	}
}

// TestCloneErrorStopsTheOperator fails clone k of one operator of each
// kind: clones 0..k of that operator must have started, no later clone
// of it may run, and the run's error must be clone k's. Every clone
// start is counted once (engine.clone_runs) before the fault hook.
func TestCloneErrorStopsTheOperator(t *testing.T) {
	p := join(join(leaf("A", 4000), leaf("B", 2000)), leaf("C", 1500))
	ds := MustGenerate(p, 5)
	ot, err := plan.ExpandMaterialized(p)
	if err != nil {
		t.Fatal(err)
	}
	s := scheduleForTree(t, plan.MustNewTaskTree(ot), 8)
	for _, kind := range []costmodel.OpKind{
		costmodel.Scan, costmodel.Build, costmodel.Probe, costmodel.Store,
	} {
		var target *sched.OpPlacement
		for _, ph := range s.Phases {
			for _, pl := range ph.Placements {
				if target == nil && pl.Op.Kind == kind && pl.Degree > 1 {
					target = pl
				}
			}
		}
		if target == nil {
			t.Fatalf("kind=%v: no operator of degree > 1 to fail", kind)
		}
		k := min(2, target.Degree-1)
		var ran []int
		hooks := 0
		met := obs.NewMetrics()
		e := testEngine()
		e.Rec = met
		e.failClone = func(op *plan.Operator, clone int) error {
			hooks++
			if op != target.Op {
				return nil
			}
			ran = append(ran, clone)
			if clone == k {
				return fmt.Errorf("fault@%d", clone)
			}
			return nil
		}
		_, err := e.Run(ds, s)
		want := fmt.Sprintf("engine: %s: fault@%d", target.Op.Name, k)
		if err == nil || err.Error() != want {
			t.Fatalf("kind=%v: got %v, want %q", kind, err, want)
		}
		if len(ran) != k+1 || ran[k] != k {
			t.Fatalf("kind=%v: %s started clones %v, want 0..%d and no later one", kind, target.Op.Name, ran, k)
		}
		if got := met.Snapshot().Counters["engine.clone_runs"]; got != int64(hooks) {
			t.Fatalf("kind=%v: engine.clone_runs = %d, want one per clone started (%d)", kind, got, hooks)
		}
	}
}

// TestNilProducerIsAnError corrupts a probe's task graph so it has no
// pipeline producer; the engine used to read outputs[nil] as an empty
// input and carry on with zero tuples.
func TestNilProducerIsAnError(t *testing.T) {
	p := join(leaf("A", 1000), leaf("B", 400))
	ds := MustGenerate(p, 9)
	s := scheduleFor(t, p, 4)

	// Find the probe and sever the edge that feeds it: its producer's
	// ConsumerEdge flips to Blocking, so producerOf finds nothing.
	var severed *plan.Operator
	for _, ph := range s.Phases {
		for _, pl := range ph.Placements {
			if pl.Op.Kind != costmodel.Probe {
				continue
			}
			for _, cand := range pl.Op.Task.Ops {
				if cand.Consumer == pl.Op && cand.ConsumerEdge == plan.Pipeline {
					severed = cand
					severed.ConsumerEdge = plan.Blocking
				}
			}
		}
	}
	if severed == nil {
		t.Fatal("no probe producer found to sever")
	}
	defer func() { severed.ConsumerEdge = plan.Pipeline }()

	_, err := testEngine().Run(ds, s)
	if err == nil {
		t.Fatal("nil producer executed as an empty input")
	}
	if !strings.Contains(err.Error(), "no pipeline producer") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestDegreeZeroIsRejected pins that a corrupt zero-degree placement
// fails with a clear error instead of a mod-by-zero panic inside
// partitionOf (or a silent empty split in splitContiguous).
func TestDegreeZeroIsRejected(t *testing.T) {
	p := join(leaf("A", 800), leaf("B", 300))
	ds := MustGenerate(p, 13)
	s := scheduleFor(t, p, 4)
	pl := s.Phases[0].Placements[0]
	saveDeg, saveSites := pl.Degree, pl.Sites
	defer func() { pl.Degree, pl.Sites = saveDeg, saveSites }()

	pl.Degree, pl.Sites = 0, nil
	_, err := testEngine().Run(ds, s)
	if err == nil {
		t.Fatal("degree-0 placement executed")
	}
	if !strings.Contains(err.Error(), "degree 0 < 1") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestSitesDegreeMismatchIsRejected covers the sibling corruption: a
// placement whose Sites slice disagrees with its Degree used to panic
// when Run zipped meters with sites.
func TestSitesDegreeMismatchIsRejected(t *testing.T) {
	p := join(leaf("A", 800), leaf("B", 300))
	ds := MustGenerate(p, 13)
	s := scheduleFor(t, p, 4)
	pl := s.Phases[0].Placements[0]
	saveSites := pl.Sites
	defer func() { pl.Sites = saveSites }()

	pl.Sites = pl.Sites[:len(pl.Sites)-1]
	if len(pl.Sites) == pl.Degree {
		t.Skip("degree-1 placement; mismatch not constructible by truncation")
	}
	_, err := testEngine().Run(ds, s)
	if err == nil {
		t.Fatal("sites/degree mismatch executed")
	}
	if !strings.Contains(err.Error(), "sites for") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// rejectsSite runs a schedule at P = 4 whose first placement has clone
// 0 at the given site, which used to panic indexing the phase's site
// system; it must be an error naming the operator.
func rejectsSite(t *testing.T, site int) {
	t.Helper()
	p := join(leaf("A", 800), leaf("B", 300))
	ds := MustGenerate(p, 13)
	s := scheduleFor(t, p, 4)
	pl := s.Phases[0].Placements[0]
	pl.Sites = append([]int{site}, pl.Sites[1:]...)
	_, err := testEngine().Run(ds, s)
	if err == nil {
		t.Fatalf("clone at site %d executed", site)
	}
	if !strings.Contains(err.Error(), "outside [0, 4)") || !strings.Contains(err.Error(), pl.Op.Name) {
		t.Fatalf("site %d: unhelpful error: %v", site, err)
	}
}

// The parent panicked with "index out of range [4] with length 4".
func TestSiteAtPIsRejected(t *testing.T) { rejectsSite(t, 4) }

// The parent panicked with "index out of range [-1]".
func TestNegativeSiteIsRejected(t *testing.T) { rejectsSite(t, -1) }

// TestNonPositiveSiteCountIsRejected: a schedule with P = 0 used to
// panic building the phase's site system.
func TestNonPositiveSiteCountIsRejected(t *testing.T) {
	p := join(leaf("A", 800), leaf("B", 300))
	ds := MustGenerate(p, 13)
	s := scheduleFor(t, p, 4)
	s.P = 0
	_, err := testEngine().Run(ds, s)
	if err == nil || !strings.Contains(err.Error(), "non-positive site count 0") {
		t.Fatalf("P = 0: got %v", err)
	}
}

// TestNilPhaseIsRejected: a nil schedule and a nil phase used to be
// nil-pointer dereferences.
func TestNilPhaseIsRejected(t *testing.T) {
	p := join(leaf("A", 800), leaf("B", 300))
	ds := MustGenerate(p, 13)
	if _, err := testEngine().Run(ds, nil); err == nil || !strings.Contains(err.Error(), "nil schedule") {
		t.Fatalf("nil schedule: got %v", err)
	}
	s := scheduleFor(t, p, 4)
	s.Phases[1] = nil
	if _, err := testEngine().Run(ds, s); err == nil || !strings.Contains(err.Error(), "phase 1 is nil") {
		t.Fatalf("nil phase: got %v", err)
	}
}

// TestScheduleDatasetMismatchIsAnError runs a schedule against a
// dataset generated for a different plan.
func TestScheduleDatasetMismatchIsAnError(t *testing.T) {
	pa := join(leaf("A", 1000), leaf("B", 400))
	pb := join(leaf("C", 900), leaf("D", 600))
	ds := MustGenerate(pb, 1)
	s := scheduleFor(t, pa, 4)
	if _, err := testEngine().Run(ds, s); err == nil {
		t.Fatal("foreign dataset accepted")
	}
}

// TestDoublePlacementIsAnError places phase 0's first operator a
// second time, in the same phase and in the last one: the run used to
// meter the operator twice and return a Report without error. It must
// fail, naming the operator.
func TestDoublePlacementIsAnError(t *testing.T) {
	p := join(leaf("A", 8000), leaf("B", 20000))
	ds := MustGenerate(p, 71)
	for _, copyTo := range []string{"first", "last"} {
		s := scheduleFor(t, p, 8)
		pl := s.Phases[0].Placements[0]
		ph := s.Phases[0]
		if copyTo == "last" {
			ph = s.Phases[len(s.Phases)-1]
		}
		ph.Placements = append(ph.Placements, pl)
		_, err := testEngine().Run(ds, s)
		if want := fmt.Sprintf("engine: schedule places %s twice", pl.Op.Name); err == nil || err.Error() != want {
			t.Fatalf("copy in the %s phase: got %v, want %q", copyTo, err, want)
		}
	}
}

// TestProbeBeforeBuildIsAnError deletes a build placement from the
// schedule, so its probe finds no hash table.
func TestProbeBeforeBuildIsAnError(t *testing.T) {
	p := join(leaf("A", 1000), leaf("B", 400))
	ds := MustGenerate(p, 9)
	s := scheduleFor(t, p, 4)
	removed := false
	for _, ph := range s.Phases {
		for i, pl := range ph.Placements {
			if pl.Op.Kind == costmodel.Build {
				ph.Placements = append(ph.Placements[:i], ph.Placements[i+1:]...)
				removed = true
				break
			}
		}
		if removed {
			break
		}
	}
	if !removed {
		t.Fatal("no build placement found")
	}
	_, err := testEngine().Run(ds, s)
	if err == nil {
		t.Fatal("probe without its build executed")
	}
	if !strings.Contains(err.Error(), "before its build") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestReportBreakdownIsConsistent checks the new metered-vs-predicted
// breakdown: phase alignment, operator coverage, and that per-phase
// measured responses dominate every member operator's isolated time.
// The recorder sees one clone run per clone, the tuple counters, and
// one phase sample per phase.
func TestReportBreakdownIsConsistent(t *testing.T) {
	p := join(
		join(leaf("A", 3000), leaf("B", 1200)),
		join(leaf("C", 900), leaf("D", 2500)),
	)
	ds := MustGenerate(p, 11)
	s := scheduleFor(t, p, 10)
	met := obs.NewMetrics()
	e := testEngine()
	e.Rec = met
	rep, err := e.Run(ds, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PhasePredicted) != len(s.Phases) {
		t.Fatalf("predicted phases %d != %d", len(rep.PhasePredicted), len(s.Phases))
	}
	sumPred := 0.0
	for i, ph := range s.Phases {
		if rep.PhasePredicted[i] != ph.Response {
			t.Fatalf("phase %d predicted %g != schedule %g",
				i, rep.PhasePredicted[i], ph.Response)
		}
		sumPred += rep.PhasePredicted[i]
	}
	if sumPred != rep.Predicted {
		t.Fatalf("phase predictions sum %g != predicted %g", sumPred, rep.Predicted)
	}
	nOps, clones := 0, 0
	for _, ph := range s.Phases {
		nOps += len(ph.Placements)
		for _, pl := range ph.Placements {
			clones += pl.Degree
		}
	}
	if len(rep.Operators) != nOps {
		t.Fatalf("breakdown has %d operators, schedule has %d", len(rep.Operators), nOps)
	}
	snap := met.Snapshot()
	if got := snap.Counters["engine.clone_runs"]; got != int64(clones) {
		t.Fatalf("engine.clone_runs = %d, schedule has %d clones", got, clones)
	}
	if snap.Counters["engine.tuples_scanned"] == 0 || snap.Counters["engine.tuples_joined"] == 0 {
		t.Fatalf("tuple counters missing: %v", snap.Counters)
	}
	if got := snap.Histograms["engine.phase_measured"].Count; got != int64(len(rep.PhaseMeasured)) {
		t.Fatalf("phase samples %d != phases %d", got, len(rep.PhaseMeasured))
	}
	for _, op := range rep.Operators {
		if op.Measured <= 0 || op.Predicted <= 0 {
			t.Fatalf("%s: non-positive times: %+v", op.Name, op)
		}
		if op.Phase < 0 || op.Phase >= len(rep.PhaseMeasured) {
			t.Fatalf("%s: phase %d out of range", op.Name, op.Phase)
		}
		// An operator alone can never take longer than the phase that
		// contains it plus its site's time-sharing: measured isolated time
		// is bounded by the phase's measured response.
		if op.Measured > rep.PhaseMeasured[op.Phase]+1e-9 {
			t.Fatalf("%s: isolated %g exceeds phase response %g",
				op.Name, op.Measured, rep.PhaseMeasured[op.Phase])
		}
	}
}
