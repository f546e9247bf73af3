package serve

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"mdrs/internal/obs"
	"mdrs/internal/plan"
	"mdrs/internal/sched"
)

// Regression for the SoloMargin normalization bug: with an
// opportunistic window (BatchWindow < 0, normalized to 0) the
// proportional default 4×BatchWindow collapsed to 0, so deadline-aware
// solo degradation fired only for deadlines that had already expired.
// The opportunistic fallback must be absolute and positive.
func TestSoloMarginDefaultSurvivesOpportunisticWindow(t *testing.T) {
	c := Config{BatchWindow: -1}.withDefaults()
	if c.BatchWindow != 0 {
		t.Fatalf("opportunistic window normalized to %v, want 0", c.BatchWindow)
	}
	if c.SoloMargin != defaultOpportunisticSoloMargin {
		t.Fatalf("SoloMargin = %v, want the opportunistic fallback %v",
			c.SoloMargin, defaultOpportunisticSoloMargin)
	}
	// The proportional default is untouched when a window exists.
	c = Config{BatchWindow: 3 * time.Millisecond}.withDefaults()
	if c.SoloMargin != 12*time.Millisecond {
		t.Fatalf("SoloMargin = %v, want 4×window", c.SoloMargin)
	}
	// And the service exposes the resolved value through its knobs.
	svc := mustService(t, Config{Scheduler: testScheduler(8, 0.5, 0.7), BatchWindow: -1})
	if got := svc.Tuning().SoloMargin; got != defaultOpportunisticSoloMargin {
		t.Fatalf("service SoloMargin knob = %v, want %v", got, defaultOpportunisticSoloMargin)
	}
}

// With the controller disabled (the zero value), the knobs hold their
// configured values forever and every schedule is byte-identical to a
// direct TreeSchedule/ScheduleBatch call — the pre-controller service.
func TestControllerOffSchedulesByteIdentical(t *testing.T) {
	ts := testScheduler(16, 0.5, 0.7)
	svc := mustService(t, Config{
		Scheduler:   ts,
		MaxInFlight: 4,
		BatchWindow: -1, // deterministic: no window to group under
		MaxBatch:    1,
	})
	before := svc.Tuning()
	for seed := int64(1); seed <= 6; seed++ {
		tree := testTree(t, seed, 6)
		res, err := svc.Schedule(context.Background(), tree)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ts.Schedule(tree)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sched.EncodeJSON(res.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := sched.EncodeJSON(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, direct) {
			t.Fatalf("seed %d: served schedule differs from direct TreeSchedule", seed)
		}
	}
	if after := svc.Tuning(); after != before {
		t.Fatalf("controller-off knobs moved: %+v -> %+v", before, after)
	}
}

// controllerHarness builds a service with the controller loop NOT
// running, plus a hand-built controller over the same (resolved)
// config, so tests can drive controlStep tick by tick against a
// metrics stream they author.
func controllerHarness(t *testing.T, cfg Config) (*Service, *controller, *obs.Metrics) {
	t.Helper()
	met := obs.NewMetrics()
	cfg.Rec = met
	svc := mustService(t, cfg)
	resolved := svc.cfg
	resolved.Controller = ControllerConfig{Enable: true, Source: met}
	ctl, _ := newController(resolved)
	return svc, ctl, met
}

// Pressure ticks tighten multiplicatively (halve the cap, widen the
// window); idle ticks relax additively back toward the
// configured values; and full recovery restores the configured cap
// exactly (including 0 = uncapped).
func TestControllerTightensAndRelaxes(t *testing.T) {
	const p = 16
	svc, ctl, met := controllerHarness(t, Config{
		Scheduler:   testScheduler(p, 0.5, 0.7),
		MaxInFlight: 2,
		MaxQueue:    8,
		BatchWindow: 2 * time.Millisecond,
	})

	// Tick 1: 100 requests, 50 shed — far above the high band.
	met.Count("serve.requests", 100)
	met.Count("serve.rejected", 50)
	svc.controlStep(ctl)
	tun := svc.Tuning()
	if tun.MaxDegree != p/2 {
		t.Fatalf("pressure tick: MaxDegree = %d, want ceiling/2 = %d", tun.MaxDegree, p/2)
	}
	if tun.BatchWindow != 4*time.Millisecond {
		t.Fatalf("pressure tick: window = %v, want doubled 4ms", tun.BatchWindow)
	}
	if tun.SoloMargin != 16*time.Millisecond {
		t.Fatalf("pressure tick: solo margin = %v, want 4×window", tun.SoloMargin)
	}

	// Sustained pressure floors at minDegree and maxWindow.
	for i := 0; i < 20; i++ {
		met.Count("serve.requests", 100)
		met.Count("serve.rejected", 50)
		svc.controlStep(ctl)
	}
	tun = svc.Tuning()
	if tun.MaxDegree != minDegree {
		t.Fatalf("sustained pressure: MaxDegree = %d, want floor %d", tun.MaxDegree, minDegree)
	}
	if tun.BatchWindow != ctl.maxWindow {
		t.Fatalf("sustained pressure: window = %v, want cap %v", tun.BatchWindow, ctl.maxWindow)
	}

	// Idle ticks (requests flow, nothing shed) relax one step at a time
	// and eventually restore the configured knobs exactly.
	for i := 0; i < p+20; i++ {
		met.Count("serve.requests", 100)
		svc.controlStep(ctl)
	}
	tun = svc.Tuning()
	if tun.MaxDegree != 0 {
		t.Fatalf("recovered MaxDegree = %d, want configured 0 (uncapped)", tun.MaxDegree)
	}
	if tun.BatchWindow != 2*time.Millisecond {
		t.Fatalf("recovered window = %v, want configured 2ms", tun.BatchWindow)
	}
}

// When the service can never coalesce a batch (one admitted request at
// a time, or MaxBatch 1), widening the window under pressure is pure
// added wait — no companion can ever join the group. Pressure ticks
// must still tighten the cap but leave the window and solo margin
// alone.
func TestControllerSkipsWindowWhenBatchingCannotCoalesce(t *testing.T) {
	for _, cfg := range []Config{
		{Scheduler: testScheduler(16, 0.5, 0.7), MaxInFlight: 1, MaxQueue: 8, BatchWindow: 2 * time.Millisecond},
		{Scheduler: testScheduler(16, 0.5, 0.7), MaxInFlight: 4, MaxQueue: 8, BatchWindow: 2 * time.Millisecond, MaxBatch: 1},
	} {
		svc, ctl, met := controllerHarness(t, cfg)
		if ctl.coalesce {
			t.Fatalf("coalesce = true for MaxInFlight %d / MaxBatch %d", cfg.MaxInFlight, cfg.MaxBatch)
		}
		for i := 0; i < 5; i++ {
			met.Count("serve.requests", 100)
			met.Count("serve.rejected", 50)
			svc.controlStep(ctl)
		}
		tun := svc.Tuning()
		if tun.MaxDegree != minDegree {
			t.Fatalf("sustained pressure: MaxDegree = %d, want floor %d", tun.MaxDegree, minDegree)
		}
		if tun.BatchWindow != 2*time.Millisecond {
			t.Fatalf("window moved to %v despite nothing to coalesce", tun.BatchWindow)
		}
		if tun.SoloMargin != 8*time.Millisecond {
			t.Fatalf("solo margin moved to %v despite nothing to coalesce", tun.SoloMargin)
		}
	}
}

// In-band ticks (between the low and high bands) hold every knob — the
// hysteresis that keeps the controller from oscillating.
func TestControllerHoldsInsideHysteresisBand(t *testing.T) {
	svc, ctl, met := controllerHarness(t, Config{
		Scheduler:   testScheduler(16, 0.5, 0.7),
		MaxInFlight: 2,
		MaxQueue:    8,
		BatchWindow: 2 * time.Millisecond,
	})
	// One pressure tick to move off the configured point.
	met.Count("serve.requests", 100)
	met.Count("serve.rejected", 50)
	svc.controlStep(ctl)
	moved := svc.Tuning()

	// Shed rate 3% sits between lowShed 1% and highShed 5%: hold.
	for i := 0; i < 5; i++ {
		met.Count("serve.requests", 100)
		met.Count("serve.rejected", 3)
		svc.controlStep(ctl)
		if got := svc.Tuning(); got != moved {
			t.Fatalf("in-band tick %d moved the knobs: %+v -> %+v", i, moved, got)
		}
	}
}

// The solo margin is derived from the live window, so a tighten/relax
// cycle ends where it began — also for a configured margin below
// 4 × BatchWindow, which a stored max(4·w, configured) never restored.
func TestControllerRestoresConfiguredSoloMargin(t *testing.T) {
	svc, ctl, met := controllerHarness(t, Config{
		Scheduler:   testScheduler(16, 0.5, 0.7),
		MaxInFlight: 2,
		MaxQueue:    8,
		BatchWindow: 2 * time.Millisecond,
		SoloMargin:  time.Millisecond,
	})
	met.Count("serve.requests", 100)
	met.Count("serve.rejected", 50)
	svc.controlStep(ctl)
	if tun := svc.Tuning(); tun.BatchWindow != 4*time.Millisecond || tun.SoloMargin != 16*time.Millisecond {
		t.Fatalf("pressure tick: window %v, solo margin %v, want 4ms and 4×window", tun.BatchWindow, tun.SoloMargin)
	}
	for i := 0; i < 3; i++ {
		met.Count("serve.requests", 100)
		svc.controlStep(ctl)
	}
	if tun := svc.Tuning(); tun.BatchWindow != 2*time.Millisecond || tun.SoloMargin != time.Millisecond {
		t.Fatalf("after relaxing: window %v, solo margin %v, want the configured 2ms and 1ms", tun.BatchWindow, tun.SoloMargin)
	}
}

// A retuned MaxDegree changes the fingerprint, so the schedule cache
// can never serve a schedule computed under a different cap: each cap's
// schedules live under their own keys.
func TestMaxDegreeRetuneNeverServesStaleCache(t *testing.T) {
	met := obs.NewMetrics()
	svc := mustService(t, Config{
		Scheduler:   testScheduler(16, 0.5, 0.7),
		MaxInFlight: 2,
		CacheSize:   8,
		Rec:         met,
	})
	tree := testTree(t, 3, 6)
	ctx := context.Background()

	uncapped, err := svc.Schedule(ctx, tree)
	if err != nil {
		t.Fatal(err)
	}
	// Retune the cap the way the controller would.
	svc.knobs.maxDegree.Store(1)
	capped, err := svc.Schedule(ctx, tree)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Cached {
		t.Fatal("capped request served from the uncapped cache entry")
	}
	if snap := met.Snapshot(); snap.Counters["serve.cache_misses"] != 2 {
		t.Fatalf("cache misses = %d, want 2 (one per cap)", snap.Counters["serve.cache_misses"])
	}
	ts := svc.scheduler()
	want, err := ts.Schedule(tree)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := sched.EncodeJSON(capped.Schedule)
	direct, _ := sched.EncodeJSON(want)
	if !bytes.Equal(got, direct) {
		t.Fatal("capped schedule differs from a direct capped TreeSchedule")
	}
	// Both entries coexist: flipping back hits the original entry.
	svc.knobs.maxDegree.Store(0)
	back, err := svc.Schedule(ctx, tree)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Cached {
		t.Fatal("uncapped re-request missed its still-cached entry")
	}
	if b, a := mustJSON(t, back.Schedule), mustJSON(t, uncapped.Schedule); !bytes.Equal(b, a) {
		t.Fatal("uncapped cache entry changed across the retune")
	}
}

func mustJSON(t *testing.T, s *sched.Schedule) []byte {
	t.Helper()
	data, err := sched.EncodeJSON(s)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The knob hammer: live retunes racing concurrent Schedule calls,
// cached and batched paths both engaged, ending in a Close racing the
// final requests. Run under -race (make race), this pins
// that every knob read on the hot path is atomic — no torn reads, no
// locks, no lost requests.
func TestKnobRetuneHammerUnderLoad(t *testing.T) {
	svc := mustService(t, Config{
		Scheduler:   testScheduler(16, 0.5, 0.7),
		MaxInFlight: 4,
		MaxQueue:    64,
		BatchWindow: 500 * time.Microsecond,
		MaxBatch:    4,
		CacheSize:   4,
	})
	trees := make([]*testTreeSlot, 4)
	for i := range trees {
		trees[i] = &testTreeSlot{tree: testTree(t, int64(i+1), 5)}
	}

	stop := make(chan struct{})
	var tuner sync.WaitGroup
	tuner.Add(1)
	go func() {
		defer tuner.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Walk every knob through the values the controller would.
			svc.knobs.maxDegree.Store(int64(i%5) * 2) // 0,2,4,6,8
			svc.knobs.batchWindow.Store(int64(i%3) * int64(time.Millisecond))
			time.Sleep(50 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				res, err := svc.Schedule(context.Background(), trees[(g+i)%len(trees)].tree)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Schedule == nil {
					t.Error("nil schedule delivered")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	tuner.Wait()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// testTreeSlot wraps a tree so the hammer's goroutines share read-only
// pointers without the loop variable footgun.
type testTreeSlot struct{ tree *plan.TaskTree }

// The end-to-end controller loop: a service under genuine overload
// (tiny admission limit, offered load far past it) with a fast tick
// must actually tighten its knobs, and Close must stop the loop.
func TestControllerLoopReactsToOverload(t *testing.T) {
	met := obs.NewMetrics()
	svc := mustService(t, Config{
		Scheduler:   testScheduler(16, 0.5, 0.7),
		MaxInFlight: 1,
		MaxQueue:    -1, // no wait queue: everything past 1 sheds
		BatchWindow: time.Millisecond,
		Controller:  ControllerConfig{Enable: true, Interval: 2 * time.Millisecond, Source: met},
		Rec:         met,
	})
	tree := testTree(t, 2, 6)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				svc.Schedule(context.Background(), tree) //nolint:errcheck // sheds expected
			}()
		}
		wg.Wait()
		if tun := svc.Tuning(); tun.MaxDegree != 0 {
			return // the controller tightened the cap: reacting
		}
	}
	t.Fatalf("controller never tightened under sustained shedding: %+v", svc.Tuning())
}

// Closing flips the moment Close begins and new submissions fail with
// ErrClosed, so health endpoints can report draining immediately.
func TestClosingReportsDrainingService(t *testing.T) {
	svc := mustService(t, Config{Scheduler: testScheduler(8, 0.5, 0.7)})
	if svc.Closing() {
		t.Fatal("fresh service reports closing")
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if !svc.Closing() {
		t.Fatal("closed service does not report closing")
	}
	if _, err := svc.Schedule(context.Background(), testTree(t, 1, 4)); err != ErrClosed {
		t.Fatalf("post-close Schedule error = %v, want ErrClosed", err)
	}
}

// RetryAfter scales with queue depth and the live window, and stays
// inside [1ms, 30s] no matter how deep the backlog.
func TestRetryAfterTracksDepthAndWindow(t *testing.T) {
	svc := mustService(t, Config{
		Scheduler:   testScheduler(8, 0.5, 0.7),
		MaxInFlight: 2,
		BatchWindow: 2 * time.Millisecond,
	})
	idle := svc.RetryAfter()
	if idle != 2*time.Millisecond {
		t.Fatalf("idle RetryAfter = %v, want one window", idle)
	}
	// Fake a backlog of three full rounds.
	svc.inflight.Store(2)
	svc.queued.Store(4)
	if got := svc.RetryAfter(); got != 8*time.Millisecond {
		t.Fatalf("backlogged RetryAfter = %v, want 4 rounds × 2ms", got)
	}
	// A controller-widened window stretches the estimate with it.
	svc.knobs.batchWindow.Store(int64(8 * time.Millisecond))
	if got := svc.RetryAfter(); got != 32*time.Millisecond {
		t.Fatalf("widened-window RetryAfter = %v, want 32ms", got)
	}
	// The clamp holds against absurd depth.
	svc.queued.Store(1 << 30)
	if got := svc.RetryAfter(); got != 30*time.Second {
		t.Fatalf("deep-queue RetryAfter = %v, want the 30s clamp", got)
	}
	svc.inflight.Store(0)
	svc.queued.Store(0)
}
