// Command mdrs-serve runs the concurrent multi-query scheduling service
// over HTTP: POST a JSON-encoded bushy hash-join plan (e.g. produced by
// mdrs-plangen) to /schedule and receive its TreeSchedule as JSON.
// Requests arriving within the batching window are scheduled together
// as one ScheduleBatch workload with inter-query resource sharing;
// admission control sheds load beyond the in-flight limit and wait
// queue with 503.
//
// Usage:
//
//	mdrs-serve -addr :8080 -sites 32 -eps 0.5 -f 0.7
//	mdrs-plangen -joins 8 | curl -s -X POST --data-binary @- localhost:8080/schedule
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/metricz
//
// Endpoints:
//
//	POST /schedule  plan JSON in, schedule JSON out. Response headers
//	                X-Mdrs-Batch-Size, X-Mdrs-Batch-Index, X-Mdrs-Solo,
//	                and X-Mdrs-Cached describe the grouping. Errors: 400
//	                for a bad plan, 503 (with Retry-After) when shed or
//	                shutting down, 504 past the request deadline.
//	GET  /healthz   liveness plus in-flight and queued counts.
//	GET  /metricz   service and scheduler metrics snapshot.
//
// -debug-addr additionally serves net/http/pprof and expvar.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"mdrs"
)

// options carries the full mdrs-serve flag surface.
type options struct {
	addr        string
	sites       int
	eps, f      float64
	maxInFlight int
	maxQueue    int
	maxBatch    int
	batchWindow time.Duration
	soloMargin  time.Duration
	cacheSize   int
	maxBody     int64
	maxDegree   int
	controller  bool
	ctlInterval time.Duration
}

// defaultMaxBody caps the /schedule request body when -max-body is
// unset: 4 MiB holds a plan of tens of thousands of joins while keeping
// a single oversized (or malicious) POST from ballooning the heap.
const defaultMaxBody = 4 << 20

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "HTTP listen address")
	flag.IntVar(&o.sites, "sites", 32, "number of system sites P")
	flag.Float64Var(&o.eps, "eps", 0.5, "resource overlap parameter ε in [0,1]")
	flag.Float64Var(&o.f, "f", 0.7, "coarse-granularity parameter f")
	flag.IntVar(&o.maxInFlight, "max-inflight", 0, "admission limit on concurrent requests (0 = GOMAXPROCS)")
	flag.IntVar(&o.maxQueue, "max-queue", 0, "bounded wait queue beyond the admission limit (0 = 4x limit, -1 = none)")
	flag.IntVar(&o.maxBatch, "max-batch", 8, "maximum queries per batched workload")
	flag.DurationVar(&o.batchWindow, "batch-window", 2*time.Millisecond, "how long a group waits for companion queries")
	flag.DurationVar(&o.soloMargin, "solo-margin", 0, "deadlines nearer than this skip batching (0 = 4x window)")
	flag.IntVar(&o.cacheSize, "cache", 0, "plan-fingerprint schedule cache size in schedules (0 = disabled)")
	flag.Int64Var(&o.maxBody, "max-body", defaultMaxBody, "maximum /schedule request body bytes (oversized POSTs get 413)")
	flag.IntVar(&o.maxDegree, "max-degree", 0, "per-query parallelism cap on floating operators (0 = uncapped)")
	flag.BoolVar(&o.controller, "controller", false, "enable the adaptive parallelism controller (retunes batch window and max-degree under load)")
	flag.DurationVar(&o.ctlInterval, "ctl-interval", 0, "adaptive controller tick period (0 = 100ms default)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof and /debug/vars on this address")
	flag.Parse()

	stopDebug := func(context.Context) error { return nil }
	if *debugAddr != "" {
		addr, stop, err := mdrs.StartDebug(*debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdrs-serve: %v\n", err)
			os.Exit(1)
		}
		stopDebug = stop
		fmt.Fprintf(os.Stderr, "mdrs-serve: debug server on http://%s/debug/pprof/\n", addr)
	}

	met := mdrs.NewMetrics()
	mdrs.PublishExpvar("mdrs_serve", met)
	svc, err := newService(o, met)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdrs-serve: %v\n", err)
		os.Exit(1)
	}

	// Connection-level timeouts close the slowloris hole: a client that
	// trickles header bytes (ReadHeaderTimeout), dribbles its body
	// (ReadTimeout), or parks idle keep-alive connections (IdleTimeout)
	// cannot pin server goroutines and file descriptors indefinitely.
	// WriteTimeout stays generous — a schedule of a large plan under a
	// saturated service can legitimately take a while to come back.
	srv := &http.Server{
		Addr:              o.addr,
		Handler:           newHandler(svc, met, o.maxBody),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "mdrs-serve: listening on %s (P=%d, ε=%.2f, f=%.2f)\n",
		o.addr, o.sites, o.eps, o.f)

	select {
	case <-ctx.Done():
		// Begin the service drain first — Close flips Closing()
		// immediately, so /healthz reports draining (503) while the HTTP
		// listener is still up and a load balancer stops routing here
		// before connections disappear. Then stop accepting connections,
		// let in-flight requests finish, wait for the drain, and take the
		// debug listener down with us — it must not outlive the service
		// it observes.
		closed := make(chan struct{})
		go func() { svc.Close(); close(closed) }()
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			fmt.Fprintf(os.Stderr, "mdrs-serve: shutdown: %v\n", err)
		}
		<-closed
		if err := stopDebug(sctx); err != nil {
			fmt.Fprintf(os.Stderr, "mdrs-serve: debug shutdown: %v\n", err)
		}
	case err := <-errCh:
		svc.Close()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		stopDebug(sctx) //nolint:errcheck // already failing
		fmt.Fprintf(os.Stderr, "mdrs-serve: %v\n", err)
		os.Exit(1)
	}
}

// newService builds the scheduling service from the flag surface.
func newService(o options, rec mdrs.Recorder) (*mdrs.SchedulingService, error) {
	ov, err := mdrs.NewOverlap(o.eps)
	if err != nil {
		return nil, err
	}
	// The service recorder doubles as the scheduler's: sched.* counters
	// (phase counts and timings) land in /metricz next to the serve.*
	// ones, so scheduler work is observable without a separate trace
	// run.
	ts := mdrs.TreeScheduler{
		Model:     mdrs.DefaultCostModel(),
		Overlap:   ov,
		P:         o.sites,
		F:         o.f,
		MaxDegree: o.maxDegree,
		Rec:       rec,
	}
	if o.cacheSize > 0 {
		// Caching mode also attaches the cost-model memo: repeated specs
		// across requests are costed once. Both caches are bit-identical
		// to the uncached paths, so -cache only changes latency.
		ts.Cache = mdrs.NewCostCache(ts.Model)
	}
	return mdrs.NewSchedulingService(mdrs.ServeConfig{
		Scheduler:   ts,
		MaxInFlight: o.maxInFlight,
		MaxQueue:    o.maxQueue,
		MaxBatch:    o.maxBatch,
		BatchWindow: o.batchWindow,
		SoloMargin:  o.soloMargin,
		CacheSize:   o.cacheSize,
		Controller: mdrs.ServeControllerConfig{
			Enable:   o.controller,
			Interval: o.ctlInterval,
		},
		Rec: rec,
	})
}

// bodyPool recycles request-body read buffers across /schedule
// requests: the handler's per-request garbage is one decode's worth of
// plan nodes, not a fresh multi-KiB byte slice per POST.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// newHandler routes the service's HTTP surface; split from main so the
// tests can drive it through httptest without a listener. maxBody caps
// the /schedule request body (<= 0 falls back to the default): a single
// oversized POST is answered with 413, never buffered whole.
func newHandler(svc *mdrs.SchedulingService, met *mdrs.Metrics, maxBody int64) http.Handler {
	if maxBody <= 0 {
		maxBody = defaultMaxBody
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/schedule", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "POST a plan JSON body", http.StatusMethodNotAllowed)
			return
		}
		body := bodyPool.Get().(*bytes.Buffer)
		body.Reset()
		defer bodyPool.Put(body)
		if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody)); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				http.Error(w, fmt.Sprintf("request body exceeds %d bytes", maxBody),
					http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		p, err := mdrs.DecodePlan(body.Bytes())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		_, tt, err := mdrs.PrepareQuery(p)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := svc.Schedule(r.Context(), tt)
		if err != nil {
			writeScheduleError(w, svc, err)
			return
		}
		// The schedule may be shared with a cache entry or the other
		// members of a batch, and so is its memoized rendering: only the
		// first response for a schedule encodes, and the bytes are written,
		// never modified.
		data, err := res.Schedule.JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(data)))
		h.Set("X-Mdrs-Batch-Size", strconv.Itoa(len(res.Group)))
		h.Set("X-Mdrs-Batch-Index", strconv.Itoa(res.Index))
		h.Set("X-Mdrs-Solo", strconv.FormatBool(res.Solo))
		h.Set("X-Mdrs-Cached", strconv.FormatBool(res.Cached))
		w.Write(data)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// A draining service still answers health checks but must stop
		// reporting ready: Close drains admitted work while every new
		// request gets ErrClosed, so a load balancer that keeps routing
		// here only feeds traffic into guaranteed 503s. Report 503 with
		// status "draining" the moment Close begins.
		if svc.Closing() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "{\"status\":\"draining\",\"inflight\":%d,\"queued\":%d}\n",
				svc.InFlight(), svc.Queued())
			return
		}
		fmt.Fprintf(w, "{\"status\":\"ok\",\"inflight\":%d,\"queued\":%d}\n",
			svc.InFlight(), svc.Queued())
	})
	mux.HandleFunc("/metricz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := met.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}

// writeScheduleError maps service errors onto HTTP statuses: shed and
// shutdown are retryable 503s, a blown deadline is 504, a cancelled
// client gets 499-style treatment via 400 (it is gone anyway), and
// anything else is a 500. The Retry-After of a 503 is derived from the
// service's live queue depth and (controller-tuned) batching window —
// a hardcoded constant either hammers a deeply-backed-up service or
// keeps clients away from one that drained milliseconds later.
func writeScheduleError(w http.ResponseWriter, svc *mdrs.SchedulingService, err error) {
	switch {
	case errors.Is(err, mdrs.ErrOverloaded), errors.Is(err, mdrs.ErrServiceClosed):
		w.Header().Set("Retry-After", retryAfterSeconds(svc.RetryAfter()))
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled):
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// retryAfterSeconds renders a duration as a whole-second Retry-After
// value, rounded up so sub-second estimates never become "0" (which
// clients read as "retry immediately" — the opposite of backoff).
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}
