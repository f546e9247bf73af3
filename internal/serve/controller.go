// Adaptive inter/intra-query parallelism controller.
//
// The controller is a periodic feedback loop over the service's own
// observability stream: each tick it reads the obs.Metrics snapshot the
// service publishes into, derives two pressure signals — the shed rate
// (serve.rejected per serve.requests over the tick) and the wait-queue
// occupancy — and retunes two knobs through the service's atomic knob
// block:
//
//   - the batching window (wider under pressure: larger groups amortize
//     scheduling work over more queries, trading latency for throughput —
//     but only when the service can actually coalesce, i.e. MaxBatch > 1
//     and more than one request may be in flight; otherwise a wider
//     window is pure added wait with no companion to share it);
//   - the per-query parallelism cap TreeScheduler.MaxDegree (lower under
//     pressure: fewer clones per operator means cheaper placement and a
//     higher service rate — inter-query parallelism is bought by
//     shrinking intra-query parallelism, the core trade of the paper's
//     multi-query regime).
//
// The policy is hysteresis-banded AIMD. Above the high band the
// controller tightens multiplicatively (halve the cap, double the
// window); below the low band it relaxes additively
// (one step back toward the configured values); between the bands it
// holds, so the knobs do not oscillate around a noisy operating point.
// Tightening is multiplicative and relaxing additive for the classic
// reason: overload must be escaped in O(log) ticks, while recovery
// probes gently enough not to re-trigger the collapse it just escaped.
//
// MaxDegree changes are safe under the schedule cache because the cap
// participates in sched.TreeScheduler.Fingerprint: schedules computed
// under different caps live under different keys, so a retune can never
// cause a stale-cap cache hit.
package serve

import (
	"time"

	"mdrs/internal/obs"
)

// ControllerConfig configures the adaptive controller. The zero value
// disables it; the other fields have defaults resolved by
// newController.
type ControllerConfig struct {
	// Enable turns the controller on. Off (the default), no knob is ever
	// written after New seeds them, and the service is byte-identical to
	// a controller-free build.
	Enable bool

	// Interval is the control-loop period. Default: 100ms — long enough
	// that each tick sees a meaningful request sample, short enough to
	// react to a load step within a few hundred milliseconds.
	Interval time.Duration

	// Source, when non-nil, is the metrics aggregate the controller
	// reads its signals from. Default: if Config.Rec is itself a
	// *obs.Metrics it is used directly; otherwise a private Metrics is
	// created and teed into Config.Rec via obs.Multi, so the controller
	// always observes the service's own counters.
	Source *obs.Metrics
}

// The hysteresis bands and the floor. highShed and lowShed band the
// shed rate (serve.rejected per serve.requests over one tick): above
// the high band the controller tightens, below the low band it may
// relax. highQueue and lowQueue band the wait-queue occupancy (queued /
// MaxQueue) the same way. minDegree floors the per-query parallelism
// cap so the controller can never serialize queries entirely.
const (
	highShed  = 0.05
	lowShed   = 0.01
	highQueue = 0.5
	lowQueue  = 0.125
	minDegree = 1
)

// controller holds the resolved policy plus the per-tick state: the
// configured base values relaxation recovers toward, and the previous
// tick's counter readings the per-tick deltas are computed against.
type controller struct {
	cfg ControllerConfig
	src *obs.Metrics

	// Configured values: the relaxed operating point.
	baseWindow time.Duration
	baseDegree int // configured MaxDegree; 0 = uncapped
	degreeCeil int // effective ceiling for recovery (baseDegree, or P when uncapped)

	// maxWindow caps how far the window may widen: 8× the configured
	// window, or 16ms when that is opportunistic (zero).
	maxWindow time.Duration

	// coalesce records whether batching can ever amortize anything:
	// MaxBatch > 1 and more than one admitted request at a time. When
	// false the window knob is left alone — widening it would delay every
	// group leader for companions that can never arrive.
	coalesce bool

	// Previous tick's cumulative counters, for windowed deltas.
	prevRequests int64
	prevRejected int64
}

// newController resolves the controller configuration against the
// (already default-resolved) service configuration and returns the
// possibly-rewritten Config: when no metrics aggregate is observable, a
// private one is teed into cfg.Rec so the controller sees the service's
// own counters. Callers must therefore use the returned Config.
func newController(cfg Config) (*controller, Config) {
	cc := cfg.Controller
	if cc.Interval <= 0 {
		cc.Interval = 100 * time.Millisecond
	}
	src := cc.Source
	if src == nil {
		if m, ok := cfg.Rec.(*obs.Metrics); ok && m != nil {
			src = m
		} else {
			src = obs.NewMetrics()
			cfg.Rec = obs.Multi(cfg.Rec, src)
		}
	}
	ceil := cfg.Scheduler.MaxDegree
	if ceil <= 0 {
		// Uncapped: the effective per-operator ceiling is the system size
		// P (Degree can never exceed it), so halving starts from there.
		ceil = cfg.Scheduler.P
	}
	maxWindow := 8 * cfg.BatchWindow
	if maxWindow <= 0 {
		maxWindow = 16 * time.Millisecond
	}
	return &controller{
		cfg:        cc,
		src:        src,
		baseWindow: cfg.BatchWindow,
		baseDegree: cfg.Scheduler.MaxDegree,
		degreeCeil: ceil,
		maxWindow:  maxWindow,
		coalesce:   cfg.MaxBatch > 1 && cfg.MaxInFlight > 1,
	}, cfg
}

// control is the controller goroutine: one controlStep per interval
// until Close. Registered with the service WaitGroup by New.
func (s *Service) control(c *controller) {
	defer s.workers.Done()
	t := time.NewTicker(c.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.controlStep(c)
		case <-s.done:
			return
		}
	}
}

// signals derives the tick's pressure signals from the metrics snapshot
// and the live gauges.
func (s *Service) signals(c *controller) (shedRate, queueOcc float64) {
	snap := c.src.Snapshot()
	requests := snap.Counters["serve.requests"]
	rejected := snap.Counters["serve.rejected"]
	dReq := requests - c.prevRequests
	dRej := rejected - c.prevRejected
	c.prevRequests, c.prevRejected = requests, rejected
	if dReq > 0 {
		shedRate = float64(dRej) / float64(dReq)
	}
	if s.cfg.MaxQueue > 0 {
		queueOcc = float64(s.queued.Load()) / float64(s.cfg.MaxQueue)
	} else {
		// No wait queue configured: fall back to in-flight occupancy so a
		// saturated semaphore still registers as pressure.
		queueOcc = float64(s.inflight.Load()) / float64(s.cfg.MaxInFlight)
	}
	return shedRate, queueOcc
}

// controlStep runs one AIMD tick: classify the operating point against
// the hysteresis bands, then tighten, relax, or hold.
func (s *Service) controlStep(c *controller) {
	shedRate, queueOcc := s.signals(c)
	rec := s.cfg.Rec

	pressure := shedRate > highShed || queueOcc > highQueue
	idle := shedRate < lowShed && queueOcc < lowQueue

	switch {
	case pressure:
		s.tighten(c)
		obs.Count(rec, "serve.ctl.tighten", 1)
	case idle:
		s.relax(c)
		obs.Count(rec, "serve.ctl.relax", 1)
	default:
		// In-band: hold. The gap between the bands is the hysteresis that
		// keeps the knobs from oscillating around a noisy signal.
		obs.Count(rec, "serve.ctl.hold", 1)
	}

	// Gauge the tick so benchmark artifacts can plot the knob
	// trajectories against the load shape.
	obs.Observe(rec, "serve.ctl.shed_rate", shedRate)
	obs.Observe(rec, "serve.ctl.queue_occupancy", queueOcc)
	obs.Observe(rec, "serve.ctl.max_degree", float64(s.knobs.maxDegree.Load()))
	obs.Observe(rec, "serve.ctl.window_seconds", s.batchWindow().Seconds())
}

// tighten is the multiplicative-decrease arm: halve the parallelism
// cap, double the batching window.
func (s *Service) tighten(c *controller) {
	// Per-query parallelism cap: 0 (uncapped) tightens from the
	// effective ceiling, so the first pressure tick already bites.
	cur := int(s.knobs.maxDegree.Load())
	if cur <= 0 || cur > c.degreeCeil {
		cur = c.degreeCeil
	}
	s.knobs.maxDegree.Store(int64(max(cur/2, minDegree)))

	// Batching window: wider groups amortize per-batch scheduling work —
	// but only when companions can actually arrive (MaxBatch > 1 and
	// more than one admitted request at a time). With nothing to
	// coalesce, a wider window is pure wait added to every request
	// exactly when the queue is longest, so the knob is left alone.
	if c.coalesce {
		w := s.batchWindow()
		if w <= 0 {
			w = time.Millisecond
		} else {
			w *= 2
		}
		s.knobs.batchWindow.Store(int64(min(w, c.maxWindow)))
	}
}

// relax is the additive-increase arm: one step back toward the
// configured operating point on every idle tick.
func (s *Service) relax(c *controller) {
	cur := int(s.knobs.maxDegree.Load())
	if cur > 0 && cur < c.degreeCeil {
		next := cur + 1
		if next >= c.degreeCeil {
			// Fully recovered: restore the configured cap exactly (which
			// may be 0 = uncapped) rather than parking at the ceiling.
			s.knobs.maxDegree.Store(int64(c.baseDegree))
		} else {
			s.knobs.maxDegree.Store(int64(next))
		}
	}

	w := s.batchWindow()
	if w > c.baseWindow {
		w /= 2
		if w < c.baseWindow {
			w = c.baseWindow
		}
		s.knobs.batchWindow.Store(int64(w))
	}
}
