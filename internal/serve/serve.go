// Package serve is the concurrent multi-query scheduling service: the
// layer between many callers racing to schedule plans and the single
// TreeScheduler.ScheduleBatch workload interface underneath.
//
// Three mechanisms make the paper's one-query-at-a-time scheduler
// production-shaped:
//
//   - Admission control. At most MaxInFlight requests are being
//     scheduled at any instant (a semaphore), at most MaxQueue more may
//     wait for a slot, and everything beyond that is shed immediately
//     with the typed ErrOverloaded — the service never queues
//     unboundedly, so a traffic spike degrades into fast rejections
//     instead of collapsing latency for everyone.
//
//   - Window batching. Admitted requests that arrive within BatchWindow
//     of each other (up to MaxBatch) are grouped into one ScheduleBatch
//     workload, so concurrent queries time-share sites exactly like
//     independent operators of one query — the inter-query
//     resource-sharing argument of the batch scheduler, applied to live
//     traffic.
//
//   - Cancellation and deadline-aware degradation. Every request
//     carries a context.Context. A request cancelled while waiting (for
//     admission, in the batching window, or mid-schedule) returns
//     ctx.Err() promptly; the scheduler itself is context-aware, so a
//     group whose every member has gone stops burning scheduler time. A
//     request whose deadline is too close to afford the batching window
//     degrades gracefully: it skips the window and is scheduled solo.
//
// The service is strictly a coordinator: scheduling decisions are made
// by the embedded TreeScheduler, and every result is bit-identical to a
// direct ScheduleBatch call on the same group of trees (pinned by the
// race tests).
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mdrs/internal/costmodel"
	"mdrs/internal/obs"
	"mdrs/internal/plan"
	"mdrs/internal/sched"
)

// Typed service errors, for errors.Is dispatch (HTTP handlers map
// ErrOverloaded to 503, the facade re-exports both).
var (
	// ErrOverloaded is returned when both the in-flight semaphore and
	// the bounded wait queue are full: the request is shed immediately
	// instead of queueing unboundedly.
	ErrOverloaded = errors.New("serve: overloaded: in-flight limit and wait queue full")
	// ErrClosed is returned for requests submitted to (or stranded in) a
	// service that has been Closed.
	ErrClosed = errors.New("serve: service closed")
)

// Config configures a Service. The zero value of every tuning knob
// picks a sensible default (see each field); Scheduler is mandatory.
type Config struct {
	// Scheduler produces every schedule. Its Rec recorder (if any) sees
	// the usual decision trace; the service's own counters go to Rec
	// below. A scheduling call runs on one goroutine, so the service
	// runs at most MaxInFlight of them at once.
	Scheduler sched.TreeScheduler

	// MaxInFlight bounds the number of admitted requests being batched
	// or scheduled at once — the admission semaphore. Default:
	// GOMAXPROCS.
	MaxInFlight int
	// MaxQueue bounds how many requests may wait for an in-flight slot.
	// Default (0): 4×MaxInFlight. Negative: no wait queue at all — a
	// full semaphore sheds immediately.
	MaxQueue int
	// BatchWindow is how long the first request of a group waits for
	// companions before the group is scheduled. Default (0): 2ms.
	// Negative: purely opportunistic batching — a group still absorbs
	// every request already pending when it forms, but never waits for
	// more.
	BatchWindow time.Duration
	// MaxBatch caps the queries per ScheduleBatch workload. Default: 8.
	MaxBatch int
	// SoloMargin is the deadline-aware degradation threshold: a request
	// whose context deadline is nearer than this skips the batching
	// window and is scheduled solo, trading sharing for latency.
	// Default: 4×BatchWindow.
	SoloMargin time.Duration

	// Controller configures the adaptive inter/intra-query parallelism
	// controller (controller.go): a periodic feedback loop that observes
	// queue depth, shed rate, and the request-latency histogram and
	// retunes the batching window and the per-query parallelism cap
	// (TreeScheduler.MaxDegree) through the service's atomic knobs. The
	// zero value leaves the controller disabled: every knob then holds
	// its configured value for the service's lifetime and behavior is
	// identical to a controller-free build (pinned by the invariance
	// tests).
	Controller ControllerConfig

	// CacheSize, when positive, enables the plan-fingerprint schedule
	// cache: a bounded LRU of up to CacheSize completed schedules keyed
	// by sched.TreeScheduler.Fingerprint. A repeated plan is answered
	// from the cache without admission, batching, or scheduling, and N
	// concurrent requests for the same uncached plan compute it once
	// (singleflight). Cached requests are scheduled as singleton groups
	// — never batched — so every cached schedule is deterministic per
	// fingerprint and byte-identical to TreeSchedule on the same tree.
	// Default (0): caching disabled, every request takes the batching
	// path.
	CacheSize int

	// Optimizer, when non-nil, enables Service.Optimize: the streaming
	// bound-interleaved plan search run under the service's admission
	// control, warm-started from the schedule cache's per-fingerprint
	// completed responses (see optimize.go). Nil leaves Optimize
	// returning ErrNoOptimizer; Schedule is unaffected either way.
	Optimizer *OptimizerConfig

	// Rec, when non-nil, receives the service's counters and histograms.
	// Every submission is classified exactly once: serve.invalid counts
	// nil or malformed trees (rejected before admission), and every
	// valid request lands in exactly one of serve.delivered,
	// serve.rejected (shed by admission control), serve.cancelled (the
	// caller's context died), serve.closed_rejects (submitted to a
	// closing service), or serve.failed (a scheduling error), so
	// serve.requests = delivered + rejected + cancelled + closed_rejects
	// + failed holds at quiescence — the arithmetic goodput is computed
	// against. serve.queue_depth and serve.inflight gauges are sampled
	// as histogram observations, serve.batch_size per dispatched group,
	// and serve.request_seconds per finished valid request. Nil disables
	// all recording.
	Rec obs.Recorder
}

// defaultOpportunisticSoloMargin is the SoloMargin fallback when the
// batching window is opportunistic (BatchWindow < 0, normalized to 0):
// the proportional default 4×BatchWindow would collapse to 0 there,
// leaving deadline-aware solo degradation to fire only for deadlines
// that have already expired.
const defaultOpportunisticSoloMargin = 8 * time.Millisecond

// withDefaults resolves the zero-value knobs.
func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.MaxQueue == 0:
		c.MaxQueue = 4 * c.MaxInFlight
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	}
	switch {
	case c.BatchWindow == 0:
		c.BatchWindow = 2 * time.Millisecond
	case c.BatchWindow < 0:
		c.BatchWindow = 0
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.SoloMargin <= 0 {
		if c.BatchWindow > 0 {
			c.SoloMargin = 4 * c.BatchWindow
		} else {
			c.SoloMargin = defaultOpportunisticSoloMargin
		}
	}
	return c
}

// Result is one request's outcome: the schedule of the group the
// request was batched into, plus where in that group its tree sits.
type Result struct {
	// Schedule is the combined batch schedule: phase i of every group
	// member executes in global phase i. A group of one is exactly the
	// tree's own TreeSchedule.
	Schedule *sched.Schedule
	// Group lists the task trees scheduled together, in batch order —
	// the exact argument a direct ScheduleBatch call would reproduce
	// this Schedule from.
	Group []*plan.TaskTree
	// Index is the position of this request's tree within Group.
	Index int
	// Solo marks a request that skipped the batching window because its
	// deadline was nearer than Config.SoloMargin (deadline-aware
	// degradation). Solo results always have len(Group) == 1.
	Solo bool
	// Cached marks a result served from the schedule cache (an LRU hit
	// or a singleflight coalescence onto another request's computation).
	// Cached results always have len(Group) == 1, and Schedule may be
	// shared with other requests — it is immutable, read-only state.
	Cached bool
	// Wait is the time the request spent in the service, admission to
	// delivery.
	Wait time.Duration
}

// request is one member of a window group: a tree, its caller's
// context, and the channel its response is delivered on.
type request struct {
	ctx   context.Context
	tree  *plan.TaskTree
	resCh chan response // buffered(1); exactly one deliver per request
	start time.Time
}

type response struct {
	res *Result
	err error
}

// knobs holds the service's dynamically tunable parameters. Every
// field is read atomically on the request hot path and written only by
// the adaptive controller (or never, when the controller is disabled),
// so live retuning cannot race the collector or the request paths.
type knobs struct {
	batchWindow atomic.Int64 // ns; <= 0 means opportunistic batching
	maxDegree   atomic.Int64 // per-query parallelism cap; 0 = uncapped
}

// Service is the concurrent scheduling service. Construct with New;
// the zero value is not usable.
type Service struct {
	cfg Config

	sem     chan struct{} // in-flight tokens, cap MaxInFlight
	waiters chan struct{} // wait-queue slots, cap MaxQueue
	pending chan *request // admitted requests awaiting batching
	done    chan struct{} // closed by Close
	cache   *schedCache   // nil unless Config.CacheSize > 0
	knobs   knobs         // live tunables; static unless the controller runs

	// optCache is the cost-model memo shared across every Optimize
	// call's bounds and schedules; nil unless Config.Optimizer is set.
	optCache *costmodel.Cache

	mu      sync.Mutex // guards closed and the workers Add-vs-Wait race
	closed  bool
	closing atomic.Bool    // set at the start of Close, before the drain
	workers sync.WaitGroup // collector + controller + groups being scheduled

	inflight atomic.Int64 // admitted and not yet delivered
	queued   atomic.Int64 // waiting for an in-flight slot
}

// batchWindow reads the live batching window.
func (s *Service) batchWindow() time.Duration {
	return time.Duration(s.knobs.batchWindow.Load())
}

// soloMargin derives the live deadline-degradation threshold: the
// configured margin while the window is the configured one, and never
// less than the 4× default ratio of a retuned window — a wider window
// must push the solo bypass out with it, or every deadline-bearing
// request would bypass the batcher exactly when batching matters most.
func (s *Service) soloMargin() time.Duration {
	w := s.batchWindow()
	if w == s.cfg.BatchWindow {
		return s.cfg.SoloMargin
	}
	return max(s.cfg.SoloMargin, 4*w)
}

// scheduler returns the configured TreeScheduler with the live knob
// overlay applied: the current per-query parallelism cap. With the
// controller disabled the knob holds its configured value, so the
// result is exactly cfg.Scheduler.
func (s *Service) scheduler() sched.TreeScheduler {
	ts := s.cfg.Scheduler
	ts.MaxDegree = int(s.knobs.maxDegree.Load())
	return ts
}

// New validates the configuration and starts the batching collector
// (and, when enabled, the adaptive controller). Callers must Close the
// service to release it.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Scheduler.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	var ctl *controller
	if cfg.Controller.Enable {
		// newController may rewrite cfg.Rec (teeing in a private metrics
		// recorder when none is observable), so it runs before the knobs
		// and channels are seeded from cfg.
		ctl, cfg = newController(cfg)
	}
	s := &Service{
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.MaxInFlight),
		waiters: make(chan struct{}, cfg.MaxQueue),
		pending: make(chan *request, cfg.MaxInFlight),
		done:    make(chan struct{}),
		cache:   newSchedCache(cfg.CacheSize),
	}
	if cfg.Optimizer != nil {
		// One memo for the lifetime of the service: every Optimize
		// call's candidate bounds and schedules share it. Reuse the
		// scheduler's own cache when one is configured so the search and
		// the request path price operators once between them.
		if cfg.Scheduler.Cache != nil {
			s.optCache = cfg.Scheduler.Cache
		} else {
			s.optCache = costmodel.NewCache(cfg.Scheduler.Model)
		}
		if err := s.search(cfg.Scheduler).Validate(); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	// Seed the live knobs from the resolved configuration; without a
	// controller these stores are the knobs' only writes, so behavior is
	// exactly the static pre-knob service.
	s.knobs.batchWindow.Store(int64(cfg.BatchWindow))
	s.knobs.maxDegree.Store(int64(cfg.Scheduler.MaxDegree))
	obs.Count(cfg.Rec, "serve.max_inflight", int64(cfg.MaxInFlight))
	s.workers.Add(1)
	go s.collect()
	if ctl != nil {
		s.workers.Add(1)
		go s.control(ctl)
	}
	return s, nil
}

// Close stops accepting requests and waits for the collector and every
// group being scheduled — a group of one on its caller's goroutine
// included — to finish. Requests already in a group or in the batching
// window are still scheduled — Close drains, it does not drop — while
// requests that have not got that far fail with ErrClosed. Close is
// idempotent.
func (s *Service) Close() error {
	s.closing.Store(true)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	s.workers.Wait()
	return nil
}

// Closing reports whether Close has begun: the service is draining (or
// already closed) and new requests fail with ErrClosed. Health
// endpoints should stop reporting ready once this flips, so a load
// balancer routes around the dying instance instead of feeding it
// traffic that will only be rejected.
func (s *Service) Closing() bool { return s.closing.Load() }

// InFlight reports the number of admitted requests not yet delivered.
func (s *Service) InFlight() int { return int(s.inflight.Load()) }

// Queued reports the number of requests waiting for an in-flight slot.
func (s *Service) Queued() int { return int(s.queued.Load()) }

// CacheLen reports the number of schedules currently held by the
// schedule cache; 0 when caching is disabled.
func (s *Service) CacheLen() int { return s.cache.Len() }

// Tuning is a point-in-time copy of the service's live knob values —
// the configured values until the adaptive controller (if enabled)
// retunes them. SoloMargin is not a knob of its own: it follows
// BatchWindow (see soloMargin).
type Tuning struct {
	BatchWindow time.Duration
	SoloMargin  time.Duration
	MaxDegree   int
}

// Tuning reports the current knob values, read atomically. Purely
// observational; the values may be retuned the instant after.
func (s *Service) Tuning() Tuning {
	return Tuning{
		BatchWindow: s.batchWindow(),
		SoloMargin:  s.soloMargin(),
		MaxDegree:   int(s.knobs.maxDegree.Load()),
	}
}

// RetryAfter estimates, from live state, how long a shed caller should
// wait before retrying: the admission pipeline's current depth
// (in-flight plus queued) drains roughly MaxInFlight requests per
// batching window, so the estimate is one window per pending round.
// The result is clamped to [1ms, 30s] — never zero, so HTTP handlers
// can ceil it to whole Retry-After seconds, and never unbounded, so a
// deep queue at a wide window cannot tell clients to go away for
// minutes.
func (s *Service) RetryAfter() time.Duration {
	w := s.batchWindow()
	if w <= 0 {
		// Opportunistic batching has no window to wait out; charge a
		// nominal service quantum per round instead.
		w = time.Millisecond
	}
	depth := int(s.inflight.Load()) + int(s.queued.Load())
	rounds := depth/s.cfg.MaxInFlight + 1
	d := time.Duration(rounds) * w
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// Schedule submits one task tree and blocks until its group is
// scheduled, the context is cancelled (returning ctx.Err()), or the
// service sheds it (ErrOverloaded) or closes (ErrClosed). Safe for
// arbitrary concurrent use.
//
// With Config.CacheSize > 0 a plan already in the schedule cache is
// answered immediately (Result.Cached), and a miss is scheduled as a
// singleton group and inserted; without a cache every request takes
// the batching path.
func (s *Service) Schedule(ctx context.Context, tree *plan.TaskTree) (*Result, error) {
	rec := s.cfg.Rec
	// Reject malformed trees at the door: inside a group a bad tree
	// would fail the whole ScheduleBatch call and take its innocent
	// batch-mates down with it. Invalid submissions are counted
	// separately and do NOT increment serve.requests — otherwise
	// malformed traffic would inflate the request rate goodput is
	// computed against.
	if tree == nil {
		obs.Count(rec, "serve.invalid", 1)
		return nil, fmt.Errorf("serve: nil task tree")
	}
	if err := tree.Validate(); err != nil {
		obs.Count(rec, "serve.invalid", 1)
		return nil, fmt.Errorf("serve: %w", err)
	}
	obs.Count(rec, "serve.requests", 1)
	start := time.Now()
	res, err := s.scheduleValid(ctx, tree)
	// Classify the outcome exactly once, here, so the counter
	// arithmetic requests = delivered + rejected + cancelled +
	// closed_rejects + failed holds at quiescence no matter which
	// internal path (cached, batched, solo, coalesced) served the
	// request.
	switch {
	case err == nil:
		obs.Count(rec, "serve.delivered", 1)
	case errors.Is(err, ErrOverloaded):
		obs.Count(rec, "serve.rejected", 1)
	case errors.Is(err, ErrClosed):
		obs.Count(rec, "serve.closed_rejects", 1)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		obs.Count(rec, "serve.cancelled", 1)
	default:
		obs.Count(rec, "serve.failed", 1)
	}
	obs.Observe(rec, "serve.request_seconds", time.Since(start).Seconds())
	return res, err
}

// scheduleValid routes an already-validated request down the cached or
// batched path.
func (s *Service) scheduleValid(ctx context.Context, tree *plan.TaskTree) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.cache != nil {
		return s.scheduleCached(ctx, tree)
	}
	return s.scheduleBatched(ctx, tree)
}

// scheduleCached is the cache-enabled request path: LRU hit, else join
// or lead the fingerprint's singleflight. The leader schedules the tree
// as a singleton group (no batching window — a batched schedule would
// depend on its accidental window companions, so only the singleton
// form is deterministic per fingerprint) and fills the cache; followers
// coalesce onto the leader's computation without consuming admission
// slots.
func (s *Service) scheduleCached(ctx context.Context, tree *plan.TaskTree) (*Result, error) {
	rec := s.cfg.Rec
	start := time.Now()
	// One scheduler snapshot serves the whole request: the fingerprint
	// and the leader's computation must observe the same MaxDegree, or a
	// controller retune between the two would file a schedule computed
	// under one cap beneath another cap's key. The cap participates in
	// the fingerprint, so each cap's schedules live under their own keys
	// and a stale-cap hit is structurally impossible.
	ts := s.scheduler()
	fp := ts.Fingerprint(tree)
	for {
		if e := s.cache.get(fp); e != nil {
			obs.Count(rec, "serve.cache_hits", 1)
			return &Result{
				Schedule: e.s,
				Group:    e.group, // shared immutable singleton group
				Cached:   true,
				Wait:     time.Since(start),
			}, nil
		}
		fl, leader := s.cache.flightFor(fp)
		if leader {
			obs.Count(rec, "serve.cache_misses", 1)
			var res *Result
			err := s.admit(ctx)
			if err == nil {
				res, err = s.scheduleAlone(ctx, ts, tree, false)
			}
			if err != nil {
				s.cache.resolve(fp, fl, nil, nil, err)
				return nil, err
			}
			if ev := s.cache.put(fp, res.Schedule, tree); ev > 0 {
				obs.Count(rec, "serve.cache_evictions", int64(ev))
			}
			s.cache.resolve(fp, fl, res.Schedule, tree, nil)
			return res, nil
		}
		// Follower: wait for the leader's outcome without holding any
		// admission resources.
		obs.Count(rec, "serve.cache_coalesced", 1)
		select {
		case <-fl.done:
			if fl.err == nil {
				return &Result{
					Schedule: fl.s,
					Group:    []*plan.TaskTree{fl.tree},
					Cached:   true,
					Wait:     time.Since(start),
				}, nil
			}
			if errors.Is(fl.err, context.Canceled) || errors.Is(fl.err, context.DeadlineExceeded) ||
				errors.Is(fl.err, ErrOverloaded) {
				// The leader's own context died or the leader itself was
				// shed by admission control — neither says anything about
				// this request, which held no admission resources while
				// coalesced. Loop and race to become the next leader (the
				// follower's own admission attempt decides its fate);
				// ctx.Done below bounds the retries.
				continue
			}
			// Service-level failures (closed, a scheduling error for this
			// plan shape) apply to the followers too.
			return nil, fl.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// scheduleBatched is the cache-less request path: admission, then the
// batching window — or, for a request nothing can join, no window.
func (s *Service) scheduleBatched(ctx context.Context, tree *plan.TaskTree) (*Result, error) {
	if err := s.admit(ctx); err != nil {
		return nil, err
	}
	if s.cfg.MaxBatch == 1 {
		return s.scheduleAlone(ctx, s.scheduler(), tree, false)
	}
	// Deadline-aware degradation: a request that cannot afford the
	// batching window goes solo.
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) < s.soloMargin() {
		obs.Count(s.cfg.Rec, "serve.solo_deadline", 1)
		return s.scheduleAlone(ctx, s.scheduler(), tree, true)
	}

	r := &request{ctx: ctx, tree: tree, resCh: make(chan response, 1), start: time.Now()}
	// Enqueue under the closed-flag lock: after Close flips the flag
	// nothing new enters pending, so the collector's shutdown drain
	// observes every admitted request. The send cannot block — each
	// pending entry holds a distinct in-flight token and the channel
	// has room for all MaxInFlight of them.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.release()
		return nil, ErrClosed
	}
	s.pending <- r
	s.mu.Unlock()

	// The response channel is buffered and written exactly once, so
	// leaving early on ctx never blocks the group runner, which still
	// releases the request's token when the group completes.
	select {
	case resp := <-r.resCh:
		return resp.res, resp.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// scheduleAlone schedules an admitted request that nothing can join —
// a cache-miss leader, a deadline-pressed request, any request when
// MaxBatch is 1 — as a group of one on the caller's own goroutine, with
// the caller's scheduler snapshot. It registers with the service's
// WaitGroup under the closed-flag lock, as spawnGroup does, so Close
// waits for it and never races Add against Wait.
func (s *Service) scheduleAlone(ctx context.Context, ts sched.TreeScheduler, tree *plan.TaskTree, solo bool) (*Result, error) {
	start := time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.release()
		return nil, ErrClosed
	}
	s.workers.Add(1)
	s.mu.Unlock()
	defer s.workers.Done()
	defer s.release()

	group := []*plan.TaskTree{tree}
	schedule, err := s.scheduleGroup(ctx, ts, group)
	if err != nil {
		return nil, err
	}
	return &Result{Schedule: schedule, Group: group, Solo: solo, Wait: time.Since(start)}, nil
}

// scheduleGroup is the service's one call into the scheduler.
func (s *Service) scheduleGroup(ctx context.Context, ts sched.TreeScheduler, trees []*plan.TaskTree) (*sched.Schedule, error) {
	rec := s.cfg.Rec
	obs.Count(rec, "serve.batches", 1)
	obs.Observe(rec, "serve.batch_size", float64(len(trees)))
	defer obs.StartTimer(rec, "serve.schedule_seconds")()
	return ts.ScheduleBatchCtx(ctx, trees)
}

// admit takes one in-flight token, which release returns: immediately,
// else through the bounded wait queue, else the request is shed with
// ErrOverloaded.
func (s *Service) admit(ctx context.Context) error {
	rec := s.cfg.Rec
	select {
	case <-s.done:
		return ErrClosed
	default:
	}
	select {
	case s.sem <- struct{}{}:
	default:
		select {
		case s.waiters <- struct{}{}:
			n := s.queued.Add(1)
			obs.Observe(rec, "serve.queue_depth", float64(n))
			admitted := false
			select {
			case s.sem <- struct{}{}:
				admitted = true
			case <-ctx.Done():
			case <-s.done:
			}
			s.queued.Add(-1)
			<-s.waiters
			if !admitted {
				if err := ctx.Err(); err != nil {
					return err
				}
				return ErrClosed
			}
		default:
			return ErrOverloaded
		}
	}
	obs.Observe(rec, "serve.inflight", float64(s.inflight.Add(1)))
	return nil
}

// collect is the batching loop: take the first pending request, hold
// the window open for companions (bounded by MaxBatch), dispatch the
// group, repeat. Exactly one collector runs per service. The window
// and batch-size knobs are re-read per group, so a controller retune
// takes effect at the next group boundary without racing an open
// window.
func (s *Service) collect() {
	defer s.workers.Done()
	for {
		var first *request
		select {
		case first = <-s.pending:
		case <-s.done:
			s.drainPending()
			return
		}
		group := []*request{first}
		window, maxBatch := s.batchWindow(), s.cfg.MaxBatch
		if window > 0 && maxBatch > 1 {
			timer := time.NewTimer(window)
		window:
			for len(group) < maxBatch {
				select {
				case r := <-s.pending:
					group = append(group, r)
				case <-timer.C:
					break window
				case <-s.done:
					break window
				}
			}
			timer.Stop()
		} else {
			// Opportunistic batching: absorb whatever is already pending
			// without waiting.
		drain:
			for len(group) < maxBatch {
				select {
				case r := <-s.pending:
					group = append(group, r)
				default:
					break drain
				}
			}
		}
		if !s.spawnGroup(group) {
			// Shutdown interrupted the window; the group members are
			// admitted, so schedule them inline (the collector itself is
			// tracked by the WaitGroup Close waits on), then drain.
			s.runGroup(group)
			s.drainPending()
			return
		}
	}
}

// drainPending schedules every request still sitting in the pending
// channel at shutdown — they were admitted before Close, so they are
// drained gracefully, in groups of up to MaxBatch.
func (s *Service) drainPending() {
	maxBatch := s.cfg.MaxBatch
	var group []*request
	for {
		select {
		case r := <-s.pending:
			group = append(group, r)
			if len(group) == maxBatch {
				s.runGroup(group)
				group = nil
			}
			continue
		default:
		}
		break
	}
	if len(group) > 0 {
		s.runGroup(group)
	}
}

// spawnGroup starts a runner goroutine for the group, registered with
// the service's WaitGroup under the closed-flag lock so Close never
// races Add against Wait. Reports false when the service is closed.
func (s *Service) spawnGroup(group []*request) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.workers.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.workers.Done()
		s.runGroup(group)
	}()
	return true
}

// runGroup schedules one window group with the scheduler's live knob
// overlay captured at dispatch: drop members already cancelled, derive
// a group context that dies only when every member has, schedule, and
// deliver.
func (s *Service) runGroup(group []*request) {
	live := make([]*request, 0, len(group))
	for _, r := range group {
		if err := r.ctx.Err(); err != nil {
			s.deliver(r, response{err: err})
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	trees := make([]*plan.TaskTree, len(live))
	for i, r := range live {
		trees[i] = r.tree
	}
	gctx, cancel := groupContext(live)
	defer cancel()
	schedule, err := s.scheduleGroup(gctx, s.scheduler(), trees)

	for i, r := range live {
		switch {
		case err == nil:
			s.deliver(r, response{res: &Result{
				Schedule: schedule,
				Group:    trees,
				Index:    i,
				Wait:     time.Since(r.start),
			}})
		case r.ctx.Err() != nil:
			// The group died because this member (and the others) left;
			// report the member's own cancellation, not the group's.
			s.deliver(r, response{err: r.ctx.Err()})
		default:
			s.deliver(r, response{err: err})
		}
	}
}

// groupContext returns a context cancelled once every member's context
// is done — one abandoned rider never cancels the shared ride, but a
// fully-abandoned group stops burning scheduler time. A group of one
// simply follows its only member. The returned cancel must be called
// when the group's work ends; it also reaps the watcher goroutines.
func groupContext(group []*request) (context.Context, context.CancelFunc) {
	if len(group) == 1 {
		return context.WithCancel(group[0].ctx)
	}
	var remaining atomic.Int64
	for _, r := range group {
		if r.ctx.Done() == nil {
			// A member that can never be cancelled keeps the group alive
			// forever; no watchers needed.
			return context.WithCancel(context.Background())
		}
		remaining.Add(1)
	}
	gctx, cancel := context.WithCancel(context.Background())
	for _, r := range group {
		go func(done <-chan struct{}) {
			select {
			case <-done:
				if remaining.Add(-1) == 0 {
					cancel()
				}
			case <-gctx.Done():
			}
		}(r.ctx.Done())
	}
	return gctx, cancel
}

// deliver hands the response to the waiting Schedule call (non-blocking:
// the channel is buffered and written exactly once) and releases the
// request's in-flight token.
func (s *Service) deliver(r *request, resp response) {
	r.resCh <- resp
	s.release()
}

// release returns an admission token.
func (s *Service) release() {
	s.inflight.Add(-1)
	<-s.sem
}
