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
// It must surface as the run's error, under both execution modes.
func TestScanCloneErrorSurfaces(t *testing.T) {
	p := join(leaf("A", 2000), leaf("B", 500))
	ds := MustGenerate(p, 3)
	s := scheduleFor(t, p, 8)
	for _, parallel := range []bool{false, true} {
		e := testEngine(parallel)
		e.failClone = failCloneOn(costmodel.Scan, 0)
		_, err := e.Run(ds, s)
		if err == nil {
			t.Fatalf("parallel=%v: injected scan clone fault was swallowed", parallel)
		}
		if !strings.Contains(err.Error(), "injected fault") ||
			!strings.Contains(err.Error(), "scan(") {
			t.Fatalf("parallel=%v: error lost the clone context: %v", parallel, err)
		}
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
		Overlap: testEngine(false).Overlap,
		P:       8,
		F:       0.7,
	}.Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []costmodel.OpKind{
		costmodel.Scan, costmodel.Build, costmodel.Probe, costmodel.Store,
	} {
		for _, parallel := range []bool{false, true} {
			e := testEngine(parallel)
			e.failClone = failCloneOn(kind, 0)
			if _, err := e.Run(ds, s); err == nil {
				t.Fatalf("kind=%v parallel=%v: clone fault swallowed", kind, parallel)
			}
		}
	}
}

// TestParallelCloneErrorIsDeterministic pins that the lowest-index
// failing clone wins regardless of goroutine interleaving.
func TestParallelCloneErrorIsDeterministic(t *testing.T) {
	p := join(leaf("A", 4000), leaf("B", 2000))
	ds := MustGenerate(p, 5)
	s := scheduleFor(t, p, 8)
	e := testEngine(true)
	e.failClone = func(op *plan.Operator, k int) error {
		if op.Kind == costmodel.Probe {
			return fmt.Errorf("fault@%d", k)
		}
		return nil
	}
	for trial := 0; trial < 10; trial++ {
		_, err := e.Run(ds, s)
		if err == nil || !strings.Contains(err.Error(), "fault@0") {
			t.Fatalf("trial %d: got %v, want the clone-0 fault", trial, err)
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

	_, err := testEngine(false).Run(ds, s)
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
	_, err := testEngine(false).Run(ds, s)
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
	_, err := testEngine(false).Run(ds, s)
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
	_, err := testEngine(false).Run(ds, s)
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
	_, err := testEngine(false).Run(ds, s)
	if err == nil || !strings.Contains(err.Error(), "non-positive site count 0") {
		t.Fatalf("P = 0: got %v", err)
	}
}

// TestNilPhaseIsRejected: a nil schedule and a nil phase used to be
// nil-pointer dereferences.
func TestNilPhaseIsRejected(t *testing.T) {
	p := join(leaf("A", 800), leaf("B", 300))
	ds := MustGenerate(p, 13)
	if _, err := testEngine(false).Run(ds, nil); err == nil || !strings.Contains(err.Error(), "nil schedule") {
		t.Fatalf("nil schedule: got %v", err)
	}
	s := scheduleFor(t, p, 4)
	s.Phases[1] = nil
	if _, err := testEngine(false).Run(ds, s); err == nil || !strings.Contains(err.Error(), "phase 1 is nil") {
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
	if _, err := testEngine(false).Run(ds, s); err == nil {
		t.Fatal("foreign dataset accepted")
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
	_, err := testEngine(false).Run(ds, s)
	if err == nil {
		t.Fatal("probe without its build executed")
	}
	if !strings.Contains(err.Error(), "before its build") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestParallelClonesRecordUnderRace exercises eachClone's goroutines
// with every recorder implementation attached — the data-race guard for
// the observability layer (meaningful under `go test -race`, which
// `make check` runs).
func TestParallelClonesRecordUnderRace(t *testing.T) {
	p := join(join(leaf("A", 5000), leaf("B", 2500)), leaf("C", 1500))
	ds := MustGenerate(p, 5)
	s := scheduleFor(t, p, 8)
	met := obs.NewMetrics()
	e := testEngine(true)
	e.Rec = obs.Multi(met, obs.NewCapture())
	rep, err := e.Run(ds, s)
	if err != nil {
		t.Fatal(err)
	}
	snap := met.Snapshot()
	if snap.Counters["engine.clone_runs"] == 0 {
		t.Fatal("no clone runs recorded")
	}
	if snap.Counters["engine.tuples_scanned"] == 0 ||
		snap.Counters["engine.tuples_joined"] == 0 {
		t.Fatalf("tuple counters missing: %v", snap.Counters)
	}
	if got := snap.Histograms["engine.phase_measured"].Count; got != int64(len(rep.PhaseMeasured)) {
		t.Fatalf("phase samples %d != phases %d", got, len(rep.PhaseMeasured))
	}
}

// TestReportBreakdownIsConsistent checks the new metered-vs-predicted
// breakdown: phase alignment, operator coverage, and that per-phase
// measured responses dominate every member operator's isolated time.
func TestReportBreakdownIsConsistent(t *testing.T) {
	p := join(
		join(leaf("A", 3000), leaf("B", 1200)),
		join(leaf("C", 900), leaf("D", 2500)),
	)
	ds := MustGenerate(p, 11)
	s := scheduleFor(t, p, 10)
	rep, err := testEngine(false).Run(ds, s)
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
	nOps := 0
	for _, ph := range s.Phases {
		nOps += len(ph.Placements)
	}
	if len(rep.Operators) != nOps {
		t.Fatalf("breakdown has %d operators, schedule has %d", len(rep.Operators), nOps)
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
