package sched

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"mdrs/internal/costmodel"
	"mdrs/internal/obs"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
)

// traceScheduler returns a TreeScheduler over the default model.
func traceScheduler(p int, eps, f float64, rec obs.Recorder) TreeScheduler {
	return TreeScheduler{
		Model:   costmodel.Default(),
		Overlap: resource.MustOverlap(eps),
		P:       p,
		F:       f,
		Rec:     rec,
	}
}

func seededTree(t *testing.T, seed int64, joins int) *plan.TaskTree {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	p := query.MustRandom(r, query.DefaultGenConfig(joins))
	return plan.MustNewTaskTree(plan.MustExpand(p))
}

// TestTraceReplayReconstructsAssignment is the acceptance contract of
// the decision trace: replaying the emitted JSONL place events must
// reconstruct the exact clone->site assignment of the schedule, for a
// seeded corpus spanning plan sizes and system widths.
func TestTraceReplayReconstructsAssignment(t *testing.T) {
	cases := []struct {
		seed  int64
		joins int
		p     int
		eps   float64
		f     float64
	}{
		{1, 3, 4, 0.5, 0.7},
		{2, 6, 8, 0.0, 0.7},
		{3, 10, 16, 1.0, 0.3},
		{4, 8, 32, 0.5, 0.0},
		{5, 12, 12, 0.25, 1.0},
	}
	for _, tc := range cases {
		tt := seededTree(t, tc.seed, tc.joins)

		// Emit the trace through the real JSONL encoder and read it back,
		// so the test covers the wire format, not just the in-memory path.
		var buf bytes.Buffer
		tr := obs.NewTracer(&buf)
		s, err := traceScheduler(tc.p, tc.eps, tc.f, tr).Schedule(tt)
		if err != nil {
			t.Fatalf("seed %d: %v", tc.seed, err)
		}
		if err := tr.Flush(); err != nil {
			t.Fatalf("seed %d: flush: %v", tc.seed, err)
		}
		events, err := obs.ReadTrace(&buf)
		if err != nil {
			t.Fatalf("seed %d: %v", tc.seed, err)
		}
		replayed := obs.TraceAssignments(events)

		want := 0
		for _, ph := range s.Phases {
			for _, pl := range ph.Placements {
				for k, site := range pl.Sites {
					want++
					got, ok := replayed[obs.PlaceKey{Phase: ph.Index, Op: pl.Op.ID, Clone: k}]
					if !ok {
						t.Fatalf("seed %d: no place event for phase %d op %d clone %d",
							tc.seed, ph.Index, pl.Op.ID, k)
					}
					if got != site {
						t.Fatalf("seed %d: phase %d op %d clone %d: trace says site %d, schedule says %d",
							tc.seed, ph.Index, pl.Op.ID, k, got, site)
					}
				}
			}
		}
		if len(replayed) != want {
			t.Fatalf("seed %d: trace has %d placements, schedule has %d",
				tc.seed, len(replayed), want)
		}
	}
}

// TestRecorderDoesNotChangeSchedule pins that attaching a recorder is
// purely observational: site maps and responses are identical to the
// untraced run, bit for bit.
func TestRecorderDoesNotChangeSchedule(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		tt := seededTree(t, seed, 5+int(seed)%5)
		plain, err := traceScheduler(10, 0.5, 0.7, nil).Schedule(tt)
		if err != nil {
			t.Fatal(err)
		}
		// Note the task tree is re-built: Schedule mutates placements into
		// per-run structs, but operators are shared, so rebuild for a clean
		// second run.
		tt2 := seededTree(t, seed, 5+int(seed)%5)
		traced, err := traceScheduler(10, 0.5, 0.7, obs.NewCapture()).Schedule(tt2)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Response != traced.Response {
			t.Fatalf("seed %d: responses differ: %g vs %g", seed, plain.Response, traced.Response)
		}
		if len(plain.Phases) != len(traced.Phases) {
			t.Fatalf("seed %d: phase counts differ", seed)
		}
		for i := range plain.Phases {
			a, b := plain.Phases[i], traced.Phases[i]
			if len(a.Placements) != len(b.Placements) {
				t.Fatalf("seed %d phase %d: placement counts differ", seed, i)
			}
			for j := range a.Placements {
				if !reflect.DeepEqual(a.Placements[j].Sites, b.Placements[j].Sites) {
					t.Fatalf("seed %d phase %d op %d: sites %v vs %v", seed, i,
						a.Placements[j].Op.ID, a.Placements[j].Sites, b.Placements[j].Sites)
				}
			}
		}
	}
}

// TestBanHitEventsEmitted forces ban-set hits: with two floating
// operators of degree P on P sites, later clones of each operator must
// skip sites already holding a sibling clone.
func TestBanHitEventsEmitted(t *testing.T) {
	const p = 4
	ops := placementOps(7, 2, p)
	for _, op := range ops { // force degree exactly P
		for op.Degree() < p {
			op.Work = append(op.Work, WorkRun{N: 1, W: op.Work[0].W.Clone()})
		}
	}
	cap := obs.NewCapture()
	met := obs.NewMetrics()
	if _, err := OperatorScheduleObserved(p, 3, resource.MustOverlap(0.5), ops,
		obs.Multi(cap, met), 0); err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, e := range cap.Events() {
		if e.Type == obs.EvBanHit {
			hits++
			if e.Banned <= 0 {
				t.Fatalf("ban_hit with non-positive count: %+v", e)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no ban_hit events for two degree-P operators")
	}
	if met.Snapshot().Counters["sched.ban_hits"] == 0 {
		t.Fatal("ban-hit counter not incremented")
	}
}

// TestPhaseEventsBracketPlacements checks the phase_open/phase_close
// envelope and the aggregate counters of a TreeSchedule trace.
func TestPhaseEventsBracketPlacements(t *testing.T) {
	tt := seededTree(t, 11, 7)
	cap := obs.NewCapture()
	met := obs.NewMetrics()
	s, err := traceScheduler(8, 0.5, 0.7, obs.Multi(cap, met)).Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	events := cap.Events()
	opens, closes := 0, 0
	depth := 0
	for _, e := range events {
		switch e.Type {
		case obs.EvPhaseOpen:
			opens++
			depth++
			if depth != 1 {
				t.Fatal("nested phase_open")
			}
		case obs.EvPhaseClose:
			closes++
			depth--
			if e.Response != s.Phases[e.Phase].Response {
				t.Fatalf("phase %d close response %g != schedule %g",
					e.Phase, e.Response, s.Phases[e.Phase].Response)
			}
		case obs.EvPlace:
			if depth != 1 {
				t.Fatal("place event outside a phase envelope")
			}
		}
	}
	if opens != len(s.Phases) || closes != len(s.Phases) {
		t.Fatalf("opens=%d closes=%d phases=%d", opens, closes, len(s.Phases))
	}
	snap := met.Snapshot()
	if snap.Counters["sched.phases"] != int64(len(s.Phases)) {
		t.Fatalf("phase counter %d != %d", snap.Counters["sched.phases"], len(s.Phases))
	}
	placed := snap.Counters["sched.clones_floating"] + snap.Counters["sched.clones_rooted"]
	want := int64(0)
	for _, ph := range s.Phases {
		for _, pl := range ph.Placements {
			want += int64(len(pl.Sites))
		}
	}
	if placed != want {
		t.Fatalf("clone counters %d != schedule clones %d", placed, want)
	}
	if snap.Histograms["sched.phase_seconds"].Count != int64(len(s.Phases)) {
		t.Fatalf("phase timer samples: %+v", snap.Histograms["sched.phase_seconds"])
	}
}

// TestBatchScheduleEmitsTrace covers the inter-query batch path.
func TestBatchScheduleEmitsTrace(t *testing.T) {
	tt1 := seededTree(t, 21, 4)
	tt2 := seededTree(t, 22, 6)
	cap := obs.NewCapture()
	ts := traceScheduler(12, 0.5, 0.7, cap)
	s, err := ts.ScheduleBatch([]*plan.TaskTree{tt1, tt2})
	if err != nil {
		t.Fatal(err)
	}
	replayed := obs.TraceAssignments(cap.Events())
	want := 0
	for _, ph := range s.Phases {
		for _, pl := range ph.Placements {
			want += len(pl.Sites)
		}
	}
	if len(replayed) != want {
		t.Fatalf("batch trace has %d placements, schedule has %d", len(replayed), want)
	}
}
