// The load-generation core: workload synthesis, the open-loop arrival
// process, outcome aggregation, and the saturation overhead probe.
//
// The generator is strictly open-loop: request arrival times are drawn
// from the offered-load process (Poisson or uniform at a fixed RPS) and
// never depend on when earlier requests complete. A closed-loop driver
// (N workers, each waiting for its response before sending again) would
// let a slow server throttle its own load and hide latency collapse —
// the coordinated-omission trap. Here a late response just means more
// requests are in flight when the next arrival fires, exactly like real
// traffic; if the dispatcher itself falls behind schedule it fires
// immediately rather than silently stretching the arrival gaps.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"mdrs"
)

// Request outcome classes. Every request lands in exactly one.
const (
	outDelivered = iota // schedule returned
	outShed             // admission control rejected (503 / ErrOverloaded)
	outCancelled        // the request's own deadline expired first
	outFailed           // anything else (transport error, 5xx, scheduling error)
	outClasses
)

// reqSpec is one arrival drawn from the workload: which plan template
// to send and whether it carries a deadline. Draws happen in the
// dispatcher goroutine from a single seeded source, so the request
// sequence is deterministic per (seed, rps, duration).
type reqSpec struct {
	template int
	deadline time.Duration // 0 = no deadline
}

// sample is one completed request's measurement. retryAfter is the
// server's backoff hint on a shed response (0 = none): the generator
// records it — reported per point as RetryAfterMeanSec — but never
// obeys it, because the arrival process is open-loop by contract; a
// generator that backed off when told to would let the server throttle
// its own offered load and hide the very overload the curve measures.
type sample struct {
	latency    time.Duration
	outcome    int
	cached     bool
	deadline   bool
	retryAfter time.Duration
}

// workload is the plan population requests are drawn from: templates
// distinct task trees (with their JSON encodings for the HTTP target),
// a Zipf rank distribution over them, and the deadline mix.
type workload struct {
	trees        []*mdrs.TaskTree
	bodies       [][]byte
	zipf         *rand.Zipf // nil = uniform over templates
	deadlineFrac float64
	deadline     time.Duration
}

// newWorkload synthesizes the template population. Template i's join
// count walks the [joins, joins+spread] range so sizes are mixed, and
// the Zipf skew s (> 1 engages the stdlib generator; <= 1 degrades to
// uniform) concentrates draws on the low-ranked templates — the
// configurable cache-hit skew.
func newWorkload(r *rand.Rand, templates, joins, spread int, zipfS, deadlineFrac float64, deadline time.Duration) (*workload, error) {
	if templates < 1 {
		return nil, fmt.Errorf("loadgen: need at least one template, have %d", templates)
	}
	if joins < 1 {
		return nil, fmt.Errorf("loadgen: need at least one join, have %d", joins)
	}
	if spread < 0 {
		spread = 0
	}
	w := &workload{
		trees:        make([]*mdrs.TaskTree, templates),
		bodies:       make([][]byte, templates),
		deadlineFrac: deadlineFrac,
		deadline:     deadline,
	}
	for i := range w.trees {
		nj := joins + i%(spread+1)
		p, err := mdrs.RandomPlan(r, mdrs.DefaultGenConfig(nj))
		if err != nil {
			return nil, err
		}
		if w.bodies[i], err = p.Encode(); err != nil {
			return nil, err
		}
		if _, w.trees[i], err = mdrs.PrepareQuery(p); err != nil {
			return nil, err
		}
	}
	if zipfS > 1 && templates > 1 {
		w.zipf = rand.NewZipf(r, zipfS, 1, uint64(templates-1))
	}
	return w, nil
}

// draw picks the next arrival's template and deadline from the
// workload's distributions.
func (w *workload) draw(r *rand.Rand) reqSpec {
	var spec reqSpec
	if w.zipf != nil {
		spec.template = int(w.zipf.Uint64())
	} else {
		spec.template = r.Intn(len(w.trees))
	}
	if w.deadlineFrac > 0 && r.Float64() < w.deadlineFrac {
		spec.deadline = w.deadline
	}
	return spec
}

// target abstracts the system under load: the in-process service or a
// remote mdrs-serve over HTTP.
type target interface {
	do(ctx context.Context, spec reqSpec) sample
}

// inprocTarget drives a serve.Service directly — no HTTP in the way,
// so the measured latency is the serve layer plus scheduling and
// nothing else.
type inprocTarget struct {
	svc *mdrs.SchedulingService
	w   *workload
}

func (t *inprocTarget) do(ctx context.Context, spec reqSpec) sample {
	if spec.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, spec.deadline)
		defer cancel()
	}
	start := time.Now()
	res, err := t.svc.Schedule(ctx, t.w.trees[spec.template])
	s := sample{latency: time.Since(start), deadline: spec.deadline > 0}
	switch {
	case err == nil:
		s.outcome = outDelivered
		s.cached = res.Cached
	case errors.Is(err, mdrs.ErrOverloaded):
		s.outcome = outShed
		s.retryAfter = t.svc.RetryAfter()
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.outcome = outCancelled
	default:
		s.outcome = outFailed
	}
	return s
}

// httpTarget POSTs encoded plans to a running mdrs-serve.
type httpTarget struct {
	base   string
	client *http.Client
	w      *workload
}

func (t *httpTarget) do(ctx context.Context, spec reqSpec) sample {
	if spec.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, spec.deadline)
		defer cancel()
	}
	start := time.Now()
	s := sample{deadline: spec.deadline > 0}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		t.base+"/schedule", bytes.NewReader(t.w.bodies[spec.template]))
	if err != nil {
		s.latency = time.Since(start)
		s.outcome = outFailed
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.client.Do(req)
	if err != nil {
		s.latency = time.Since(start)
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.outcome = outCancelled
		} else {
			s.outcome = outFailed
		}
		return s
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
	resp.Body.Close()
	s.latency = time.Since(start)
	switch resp.StatusCode {
	case http.StatusOK:
		s.outcome = outDelivered
		s.cached = resp.Header.Get("X-Mdrs-Cached") == "true"
	case http.StatusServiceUnavailable:
		s.outcome = outShed
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			s.retryAfter = time.Duration(secs) * time.Second
		}
	case http.StatusGatewayTimeout:
		s.outcome = outCancelled
	default:
		s.outcome = outFailed
	}
	return s
}

// aggregator collects samples from the per-request goroutines.
type aggregator struct {
	mu        sync.Mutex
	latencies []time.Duration // delivered requests only
	counts    [outClasses]int
	cached    int
	retrySum  time.Duration // sum of shed responses' Retry-After hints
	retryN    int
}

func (a *aggregator) record(s sample) {
	a.mu.Lock()
	a.counts[s.outcome]++
	if s.outcome == outDelivered {
		a.latencies = append(a.latencies, s.latency)
		if s.cached {
			a.cached++
		}
	}
	if s.retryAfter > 0 {
		a.retrySum += s.retryAfter
		a.retryN++
	}
	a.mu.Unlock()
}

// LatencyStats summarizes the delivered-request latency distribution in
// milliseconds. Quantiles are exact (computed over the full sorted
// sample set, not bucket estimates); p999 is only meaningful once a
// point has observed well over a thousand deliveries.
type LatencyStats struct {
	Mean float64 `json:"mean_ms"`
	P50  float64 `json:"p50_ms"`
	P99  float64 `json:"p99_ms"`
	P999 float64 `json:"p999_ms"`
	Max  float64 `json:"max_ms"`
}

// latencyStats sorts (destructively) and summarizes.
func latencyStats(lats []time.Duration) LatencyStats {
	if len(lats) == 0 {
		return LatencyStats{}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return LatencyStats{
		Mean: ms(sum / time.Duration(len(lats))),
		P50:  ms(exactQuantile(lats, 0.50)),
		P99:  ms(exactQuantile(lats, 0.99)),
		P999: ms(exactQuantile(lats, 0.999)),
		Max:  ms(lats[len(lats)-1]),
	}
}

// exactQuantile returns the q-quantile of a sorted sample set by the
// nearest-rank method.
func exactQuantile(sorted []time.Duration, q float64) time.Duration {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// PointResult is one offered-load point of the curve.
type PointResult struct {
	OfferedRPS  float64      `json:"offered_rps"`
	DurationSec float64      `json:"duration_sec"`
	Sent        int          `json:"sent"`
	Delivered   int          `json:"delivered"`
	Shed        int          `json:"shed"`
	Cancelled   int          `json:"cancelled"`
	Failed      int          `json:"failed"`
	AchievedRPS float64      `json:"achieved_rps"` // sent / elapsed: how close the dispatcher held the offered rate
	GoodputRPS  float64      `json:"goodput_rps"`  // delivered / elapsed
	ShedRate    float64      `json:"shed_rate"`    // shed / sent
	Latency     LatencyStats `json:"latency"`
	// CacheHitRate is delivered-from-cache / delivered (LRU hits plus
	// singleflight coalescences, as observed per request).
	CacheHitRate float64 `json:"cache_hit_rate"`
	// CoalesceRate is the serve.cache_coalesced delta per valid request
	// (in-process target only; 0 over HTTP, where only the per-request
	// cached bit is visible).
	CoalesceRate float64 `json:"coalesce_rate"`
	// RetryAfterMeanSec is the mean backoff hint carried by this point's
	// shed responses, in seconds. Recorded, never obeyed: the arrival
	// process is open-loop by contract.
	RetryAfterMeanSec float64 `json:"retry_after_mean_sec,omitempty"`
	// ServeOverheadFrac is (request_seconds − schedule_seconds) /
	// schedule_seconds from the service's own histograms over this point
	// (in-process target only). It includes queueing and window time, so
	// past saturation it grows without bound — the controlled overhead
	// number is the separate saturation probe's.
	ServeOverheadFrac float64 `json:"serve_overhead_frac,omitempty"`
}

// metricsDelta reads the counters/sums the per-point serve-side rates
// are derived from.
type metricsDelta struct {
	requests, coalesced    int64
	requestSec, partialSec float64
}

func snapshotDelta(met *mdrs.Metrics) metricsDelta {
	if met == nil {
		return metricsDelta{}
	}
	snap := met.Snapshot()
	return metricsDelta{
		requests:   snap.Counters["serve.requests"],
		coalesced:  snap.Counters["serve.cache_coalesced"],
		requestSec: snap.Histograms["serve.request_seconds"].Sum,
		partialSec: snap.Histograms["serve.schedule_seconds"].Sum,
	}
}

// runPoint drives one offered-load point: an open-loop arrival process
// at rps for duration, firing each request on its own goroutine the
// moment its arrival time comes due.
func runPoint(ctx context.Context, tgt target, w *workload, met *mdrs.Metrics,
	rps float64, duration time.Duration, poisson bool, r *rand.Rand) PointResult {
	before := snapshotDelta(met)
	var (
		agg   aggregator
		wg    sync.WaitGroup
		sent  int
		start = time.Now()
		next  = start
		end   = start.Add(duration)
	)
	for {
		now := time.Now()
		if !now.Before(end) {
			break
		}
		if next.After(now) {
			time.Sleep(next.Sub(now))
			if !time.Now().Before(end) {
				break
			}
		}
		// Draw in the dispatcher so the request sequence depends only on
		// the seed, never on completion timing.
		spec := w.draw(r)
		sent++
		wg.Add(1)
		go func(spec reqSpec) {
			defer wg.Done()
			agg.record(tgt.do(ctx, spec))
		}(spec)
		var gap time.Duration
		if poisson {
			gap = time.Duration(r.ExpFloat64() / rps * float64(time.Second))
		} else {
			gap = time.Duration(float64(time.Second) / rps)
		}
		// Open loop: if we are already past the next arrival time the
		// request fires immediately — lateness is never folded into the
		// offered process.
		next = next.Add(gap)
	}
	elapsed := time.Since(start)
	wg.Wait()
	after := snapshotDelta(met)

	res := PointResult{
		OfferedRPS:  rps,
		DurationSec: duration.Seconds(),
		Sent:        sent,
		Delivered:   agg.counts[outDelivered],
		Shed:        agg.counts[outShed],
		Cancelled:   agg.counts[outCancelled],
		Failed:      agg.counts[outFailed],
		Latency:     latencyStats(agg.latencies),
	}
	if secs := elapsed.Seconds(); secs > 0 {
		res.AchievedRPS = float64(sent) / secs
		res.GoodputRPS = float64(res.Delivered) / secs
	}
	if sent > 0 {
		res.ShedRate = float64(res.Shed) / float64(sent)
	}
	if res.Delivered > 0 {
		res.CacheHitRate = float64(agg.cached) / float64(res.Delivered)
	}
	if agg.retryN > 0 {
		res.RetryAfterMeanSec = (agg.retrySum / time.Duration(agg.retryN)).Seconds()
	}
	if dr := after.requests - before.requests; dr > 0 {
		res.CoalesceRate = float64(after.coalesced-before.coalesced) / float64(dr)
	}
	if ds := after.partialSec - before.partialSec; ds > 0 {
		res.ServeOverheadFrac = ((after.requestSec - before.requestSec) - ds) / ds
	}
	return res
}

// Load shapes: how the offered rate evolves over one shaped run.
// steady is the classic fixed-rate point; ramp climbs linearly from a
// fraction of the peak to the peak (does the controller track a rising
// tide?); step holds a low rate then jumps to the peak at the midpoint
// (how fast does the controller react to a cliff?).
const (
	shapeSteady = "steady"
	shapeRamp   = "ramp"
	shapeStep   = "step"
)

// shapeRate returns the instantaneous offered rate at elapsed fraction
// frac of a shaped run with the given peak.
func shapeRate(shape string, peak, frac float64) float64 {
	switch shape {
	case shapeRamp:
		// Linear climb from 20% to 100% of peak.
		return peak * (0.2 + float64(0.8*frac))
	case shapeStep:
		// Quarter rate until the midpoint, then the full peak.
		if frac < 0.5 {
			return peak / 4
		}
		return peak
	default:
		return peak
	}
}

// runShaped drives one open-loop run whose offered rate follows the
// shape over the full duration, attributing every request to the time
// bucket its arrival lands in. Unlike running the buckets as separate
// points, the dispatcher never drains between buckets — backlog built
// during an early bucket carries into the next, which is exactly the
// transient a ramp or step exists to measure. One PointResult is
// returned per bucket; its OfferedRPS is the shape's rate at the
// bucket's midpoint and the serve-side delta rates (coalesce, overhead)
// are left zero, since the service's cumulative histograms cannot be
// attributed to sub-run buckets.
func runShaped(ctx context.Context, tgt target, w *workload, shape string, peak float64,
	duration time.Duration, buckets int, poisson bool, r *rand.Rand) []PointResult {
	if buckets < 1 {
		buckets = 1
	}
	var (
		aggs      = make([]aggregator, buckets)
		sents     = make([]int, buckets)
		wg        sync.WaitGroup
		start     = time.Now()
		next      = start
		end       = start.Add(duration)
		bucketDur = duration / time.Duration(buckets)
	)
	for {
		now := time.Now()
		if !now.Before(end) {
			break
		}
		if next.After(now) {
			time.Sleep(next.Sub(now))
			if now = time.Now(); !now.Before(end) {
				break
			}
		}
		elapsed := now.Sub(start)
		bucket := int(elapsed / bucketDur)
		if bucket >= buckets {
			bucket = buckets - 1
		}
		spec := w.draw(r)
		sents[bucket]++
		wg.Add(1)
		go func(spec reqSpec, agg *aggregator) {
			defer wg.Done()
			agg.record(tgt.do(ctx, spec))
		}(spec, &aggs[bucket])
		rate := shapeRate(shape, peak, float64(elapsed)/float64(duration))
		var gap time.Duration
		if poisson {
			gap = time.Duration(r.ExpFloat64() / rate * float64(time.Second))
		} else {
			gap = time.Duration(float64(time.Second) / rate)
		}
		next = next.Add(gap)
	}
	wg.Wait()

	out := make([]PointResult, buckets)
	for i := range out {
		mid := (float64(i) + 0.5) / float64(buckets)
		agg, secs := &aggs[i], bucketDur.Seconds()
		pt := PointResult{
			OfferedRPS:  shapeRate(shape, peak, mid),
			DurationSec: secs,
			Sent:        sents[i],
			Delivered:   agg.counts[outDelivered],
			Shed:        agg.counts[outShed],
			Cancelled:   agg.counts[outCancelled],
			Failed:      agg.counts[outFailed],
			Latency:     latencyStats(agg.latencies),
		}
		if secs > 0 {
			pt.AchievedRPS = float64(pt.Sent) / secs
			pt.GoodputRPS = float64(pt.Delivered) / secs
		}
		if pt.Sent > 0 {
			pt.ShedRate = float64(pt.Shed) / float64(pt.Sent)
		}
		if pt.Delivered > 0 {
			pt.CacheHitRate = float64(agg.cached) / float64(pt.Delivered)
		}
		if agg.retryN > 0 {
			pt.RetryAfterMeanSec = (agg.retrySum / time.Duration(agg.retryN)).Seconds()
		}
		out[i] = pt
	}
	return out
}

// OverheadResult is the saturation overhead probe: the service driven
// at exactly MaxInFlight concurrency with batching and caching off, so
// every request is one ScheduleBatch call and the gap between request
// wall time and pure schedule time is the serve layer's own overhead
// (admission handoff, request pooling, delivery) — the "< 5% of
// schedule time at saturation" target.
type OverheadResult struct {
	Concurrency   int     `json:"concurrency"`
	Requests      int     `json:"requests"`
	RequestUsMean float64 `json:"request_us_mean"`
	ScheduleUs    float64 `json:"schedule_us_mean"`
	OverheadFrac  float64 `json:"overhead_frac"`
}

// measureOverhead saturates a dedicated service (same scheduler shape
// as the load run) with a closed loop of exactly MaxInFlight workers.
// Closed-loop is deliberate here — the probe wants zero queueing so
// wall time decomposes into schedule time plus serve mechanics; the
// open-loop curves above are where throughput and latency come from.
func measureOverhead(newSvc func(met *mdrs.Metrics) (*mdrs.SchedulingService, error),
	trees []*mdrs.TaskTree, concurrency, perWorker int) (OverheadResult, error) {
	met := mdrs.NewMetrics()
	svc, err := newSvc(met)
	if err != nil {
		return OverheadResult{}, err
	}
	defer svc.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, concurrency)
	ctx := context.Background()
	for g := 0; g < concurrency; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := svc.Schedule(ctx, trees[(g+i)%len(trees)]); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return OverheadResult{}, err
	}

	snap := met.Snapshot()
	req := snap.Histograms["serve.request_seconds"]
	sched := snap.Histograms["serve.schedule_seconds"]
	res := OverheadResult{
		Concurrency: concurrency,
		Requests:    int(req.Count),
	}
	if req.Count > 0 {
		res.RequestUsMean = req.Sum / float64(req.Count) * 1e6
	}
	if sched.Count > 0 {
		res.ScheduleUs = sched.Sum / float64(sched.Count) * 1e6
	}
	if sched.Sum > 0 {
		res.OverheadFrac = (req.Sum - sched.Sum) / sched.Sum
	}
	return res, nil
}
