// Command mdrs-loadgen drives the scheduling service with an open-loop
// workload and writes the resulting load curve as JSON (the
// BENCH_serve.json format tracked at the repository root).
//
// The generator offers load at fixed request rates — Poisson or
// uniform arrivals — against either an in-process SchedulingService
// (the default; measures the serve layer with no network in the way)
// or a running mdrs-serve over HTTP (-target). The plan population is
// a fixed set of templates with mixed join counts, drawn Zipfian so a
// configurable fraction of traffic repeats hot plans (the cache-hit
// skew), and a configurable fraction of requests carry deadlines.
//
// Each offered-load point reports exact p50/p99/p999 delivered
// latency, shed rate, goodput, and the cache-hit and coalesce rates.
// For the in-process target a separate closed-loop saturation probe
// measures the serve layer's own overhead as a fraction of pure
// schedule time (see DESIGN.md §12 for the methodology).
//
// Usage:
//
//	mdrs-loadgen -rps 50,200,800 -duration 5s -out BENCH_serve.json
//	mdrs-loadgen -target http://localhost:8080 -rps 100,400 -cache 256
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mdrs"
)

// options is the full mdrs-loadgen flag surface.
type options struct {
	out      string
	target   string
	rps      string
	duration time.Duration
	arrivals string
	seed     int64

	// Workload population.
	templates    int
	joins        int
	joinsSpread  int
	zipfS        float64
	deadlineFrac float64
	deadline     time.Duration

	// Load shape: steady, ramp, or step, with the bucket count shaped
	// runs report transient behavior at.
	shape        string
	shapeBuckets int

	// In-process service shape (ignored with -target).
	sites       int
	eps, f      float64
	maxInFlight int
	maxQueue    int
	maxBatch    int
	batchWindow time.Duration
	cacheSize   int
	maxDegree   int
	controller  bool

	// compareController runs the whole sweep twice against fresh
	// in-process services — controller off, then on — and writes the
	// paired curves (the BENCH_adaptive.json format).
	compareController bool

	// Saturation overhead probe (in-process only; 0 disables).
	overheadReqs int
}

func parseFlags() options {
	var o options
	flag.StringVar(&o.out, "out", "BENCH_serve.json", "write the load-curve report as JSON to this file")
	flag.StringVar(&o.target, "target", "", "base URL of a running mdrs-serve (empty = in-process service)")
	flag.StringVar(&o.rps, "rps", "50,200,800", "comma-separated offered-load points in requests/sec")
	flag.DurationVar(&o.duration, "duration", 5*time.Second, "wall time per offered-load point")
	flag.StringVar(&o.arrivals, "arrivals", "poisson", "arrival process: poisson or uniform")
	flag.Int64Var(&o.seed, "seed", 1, "workload and arrival seed")
	flag.IntVar(&o.templates, "templates", 32, "distinct plan templates in the population")
	flag.IntVar(&o.joins, "joins", 4, "minimum joins per template")
	flag.IntVar(&o.joinsSpread, "joins-spread", 3, "template join counts walk [joins, joins+spread]")
	flag.Float64Var(&o.zipfS, "zipf", 1.2, "Zipf skew over templates (s > 1; <= 1 = uniform draws)")
	flag.Float64Var(&o.deadlineFrac, "deadline-frac", 0.1, "fraction of requests carrying a deadline")
	flag.DurationVar(&o.deadline, "deadline", 250*time.Millisecond, "deadline attached to that fraction")
	flag.IntVar(&o.sites, "sites", 32, "number of system sites P")
	flag.Float64Var(&o.eps, "eps", 0.5, "resource overlap parameter ε in [0,1]")
	flag.Float64Var(&o.f, "f", 0.7, "coarse-granularity parameter f")
	flag.IntVar(&o.maxInFlight, "max-inflight", 0, "admission limit on concurrent requests (0 = GOMAXPROCS)")
	flag.IntVar(&o.maxQueue, "max-queue", 0, "bounded wait queue beyond the admission limit (0 = 4x limit, -1 = none)")
	flag.IntVar(&o.maxBatch, "max-batch", 8, "maximum queries per batched workload")
	flag.DurationVar(&o.batchWindow, "batch-window", 2*time.Millisecond, "how long a group waits for companion queries")
	flag.IntVar(&o.cacheSize, "cache", 256, "plan-fingerprint schedule cache size (0 = disabled)")
	flag.IntVar(&o.maxDegree, "max-degree", 0, "per-query parallelism cap on floating operators (0 = uncapped)")
	flag.BoolVar(&o.controller, "controller", false, "enable the adaptive parallelism controller on the in-process service")
	flag.StringVar(&o.shape, "shape", "steady", "load shape per point: steady, ramp (20%->100% of the rate), or step (25% then 100% at the midpoint)")
	flag.IntVar(&o.shapeBuckets, "shape-buckets", 5, "time buckets a ramp/step run reports transient results at")
	flag.BoolVar(&o.compareController, "compare-controller", false, "run the sweep twice (controller off, then on) against fresh in-process services and write paired curves")
	flag.IntVar(&o.overheadReqs, "overhead-requests", 200, "requests per worker in the saturation overhead probe (0 = skip)")
	flag.Parse()
	return o
}

// reportConfig records every knob that shapes the numbers, so two
// BENCH_serve.json files are comparable only when their configs match.
type reportConfig struct {
	Target        string  `json:"target"` // "inproc" or the -target URL
	Arrivals      string  `json:"arrivals"`
	Seed          int64   `json:"seed"`
	Templates     int     `json:"templates"`
	Joins         int     `json:"joins"`
	JoinsSpread   int     `json:"joins_spread"`
	ZipfS         float64 `json:"zipf_s"`
	DeadlineFrac  float64 `json:"deadline_frac"`
	DeadlineMs    float64 `json:"deadline_ms"`
	Sites         int     `json:"sites"`
	Epsilon       float64 `json:"epsilon"`
	F             float64 `json:"f"`
	MaxInFlight   int     `json:"max_inflight"`
	MaxBatch      int     `json:"max_batch"`
	BatchWindowMs float64 `json:"batch_window_ms"`
	CacheSize     int     `json:"cache_size"`
	MaxDegree     int     `json:"max_degree,omitempty"`
	Controller    bool    `json:"controller,omitempty"`
	Shape         string  `json:"shape,omitempty"`
}

// report is the BENCH_serve.json document: configuration, one
// PointResult per offered-load point, and (in-process runs) the
// closed-loop saturation overhead probe.
type report struct {
	Config   reportConfig    `json:"config"`
	Points   []PointResult   `json:"points"`
	Overhead *OverheadResult `json:"overhead,omitempty"`
}

func main() {
	if err := run(parseFlags(), os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "mdrs-loadgen: %v\n", err)
		os.Exit(1)
	}
}

// run executes the full load sweep and writes the report; split from
// main so tests can drive the binary end to end without a process.
func run(o options, errW io.Writer) error {
	rates, err := parseRates(o.rps)
	if err != nil {
		return err
	}
	var poisson bool
	switch o.arrivals {
	case "poisson":
		poisson = true
	case "uniform":
	default:
		return fmt.Errorf("unknown -arrivals %q (want poisson or uniform)", o.arrivals)
	}
	if o.duration <= 0 {
		return fmt.Errorf("-duration must be positive, have %v", o.duration)
	}
	switch o.shape {
	case "":
		o.shape = shapeSteady // zero value (tests building options directly)
	case shapeSteady, shapeRamp, shapeStep:
	default:
		return fmt.Errorf("unknown -shape %q (want steady, ramp, or step)", o.shape)
	}
	if o.compareController {
		if o.target != "" {
			return fmt.Errorf("-compare-controller needs the in-process target (it builds both services itself)")
		}
		return runCompare(o, rates, poisson, errW)
	}

	r := rand.New(rand.NewSource(o.seed))
	w, err := newWorkload(r, o.templates, o.joins, o.joinsSpread, o.zipfS, o.deadlineFrac, o.deadline)
	if err != nil {
		return err
	}

	var (
		tgt target
		met *mdrs.Metrics
	)
	targetName := o.target
	if o.target == "" {
		targetName = "inproc"
		met = mdrs.NewMetrics()
		svc, err := newService(o, met, o.maxBatch, o.batchWindow, o.cacheSize, o.controller)
		if err != nil {
			return err
		}
		defer svc.Close()
		tgt = &inprocTarget{svc: svc, w: w}
	} else {
		tgt = &httpTarget{
			base:   strings.TrimRight(o.target, "/"),
			client: &http.Client{}, // per-request deadlines come from ctx
			w:      w,
		}
	}

	rep := report{
		Config: reportConfig{
			Target:        targetName,
			Arrivals:      o.arrivals,
			Seed:          o.seed,
			Templates:     o.templates,
			Joins:         o.joins,
			JoinsSpread:   o.joinsSpread,
			ZipfS:         o.zipfS,
			DeadlineFrac:  o.deadlineFrac,
			DeadlineMs:    float64(o.deadline) / float64(time.Millisecond),
			Sites:         o.sites,
			Epsilon:       o.eps,
			F:             o.f,
			MaxInFlight:   o.maxInFlight,
			MaxBatch:      o.maxBatch,
			BatchWindowMs: float64(o.batchWindow) / float64(time.Millisecond),
			CacheSize:     o.cacheSize,
			MaxDegree:     o.maxDegree,
			Controller:    o.controller,
			Shape:         o.shape,
		},
	}

	ctx := context.Background()
	for _, rps := range rates {
		if o.shape == shapeSteady {
			pt := runPoint(ctx, tgt, w, met, rps, o.duration, poisson, r)
			rep.Points = append(rep.Points, pt)
			logPoint(errW, pt)
			continue
		}
		// A shaped run reports one transient bucket per time slice; each
		// -rps entry is the shape's peak.
		for _, pt := range runShaped(ctx, tgt, w, o.shape, rps, o.duration, o.shapeBuckets, poisson, r) {
			rep.Points = append(rep.Points, pt)
			logPoint(errW, pt)
		}
	}

	// The overhead probe only makes sense against the in-process
	// service: it needs a dedicated instance with batching and caching
	// off, and the serve-layer histograms to decompose wall time.
	if o.target == "" && o.overheadReqs > 0 {
		conc := o.maxInFlight
		if conc <= 0 {
			conc = runtime.GOMAXPROCS(0)
		}
		oh, err := measureOverhead(func(m *mdrs.Metrics) (*mdrs.SchedulingService, error) {
			return newService(o, m, 1, 0, 0, false) // MaxBatch 1, no window, no cache, no controller
		}, w.trees, conc, o.overheadReqs)
		if err != nil {
			return err
		}
		rep.Overhead = &oh
		fmt.Fprintf(errW,
			"mdrs-loadgen: saturation probe: %d workers, request %.0fµs vs schedule %.0fµs → serve overhead %.2f%%\n",
			oh.Concurrency, oh.RequestUsMean, oh.ScheduleUs, 100*oh.OverheadFrac)
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(errW, "mdrs-loadgen: wrote %d points to %s\n", len(rep.Points), o.out)
	return nil
}

// newService builds an in-process scheduling service with the run's
// scheduler shape; batch/window/cache/controller are parameters so the
// overhead probe can strip them — and the comparison mode can flip the
// controller — while keeping the same scheduler.
func newService(o options, met *mdrs.Metrics, maxBatch int, window time.Duration, cacheSize int, controller bool) (*mdrs.SchedulingService, error) {
	ov, err := mdrs.NewOverlap(o.eps)
	if err != nil {
		return nil, err
	}
	ts := mdrs.TreeScheduler{
		Model:     mdrs.DefaultCostModel(),
		Overlap:   ov,
		P:         o.sites,
		F:         o.f,
		MaxDegree: o.maxDegree,
		Rec:       met,
	}
	if cacheSize > 0 {
		ts.Cache = mdrs.NewCostCache(ts.Model)
	}
	return mdrs.NewSchedulingService(mdrs.ServeConfig{
		Scheduler:   ts,
		MaxInFlight: o.maxInFlight,
		MaxQueue:    o.maxQueue,
		MaxBatch:    maxBatch,
		BatchWindow: window,
		CacheSize:   cacheSize,
		Controller:  mdrs.ServeControllerConfig{Enable: controller, Source: met},
		Rec:         met,
	})
}

// logPoint prints one point's one-line summary to stderr.
func logPoint(errW io.Writer, pt PointResult) {
	fmt.Fprintf(errW,
		"mdrs-loadgen: %7.1f rps offered: goodput %7.1f/s, shed %5.1f%%, p50 %.2fms, p99 %.2fms, p999 %.2fms, cache %4.1f%%\n",
		pt.OfferedRPS, pt.GoodputRPS, 100*pt.ShedRate,
		pt.Latency.P50, pt.Latency.P99, pt.Latency.P999, 100*pt.CacheHitRate)
}

// curve is one arm of the controller comparison: the steady
// offered-load sweep plus one ramp run at the highest rate.
type curve struct {
	Controller bool          `json:"controller"`
	Points     []PointResult `json:"points"`
	Ramp       []PointResult `json:"ramp"`
}

// compareReport is the BENCH_adaptive.json document: the shared
// configuration and the controller-off and controller-on curves.
type compareReport struct {
	Config reportConfig `json:"config"`
	Off    curve        `json:"off"`
	On     curve        `json:"on"`
}

// runCompare runs the same sweep twice — against a fresh in-process
// service with the controller off, then on — and writes the paired
// curves. Each arm reseeds the workload and arrival RNG from -seed, so
// both services face an identical request sequence and the only
// difference between the curves is the controller.
func runCompare(o options, rates []float64, poisson bool, errW io.Writer) error {
	rep := compareReport{
		Config: reportConfig{
			Target:        "inproc",
			Arrivals:      o.arrivals,
			Seed:          o.seed,
			Templates:     o.templates,
			Joins:         o.joins,
			JoinsSpread:   o.joinsSpread,
			ZipfS:         o.zipfS,
			DeadlineFrac:  o.deadlineFrac,
			DeadlineMs:    float64(o.deadline) / float64(time.Millisecond),
			Sites:         o.sites,
			Epsilon:       o.eps,
			F:             o.f,
			MaxInFlight:   o.maxInFlight,
			MaxBatch:      o.maxBatch,
			BatchWindowMs: float64(o.batchWindow) / float64(time.Millisecond),
			CacheSize:     o.cacheSize,
			MaxDegree:     o.maxDegree,
		},
	}
	for _, controller := range []bool{false, true} {
		fmt.Fprintf(errW, "mdrs-loadgen: --- controller %v ---\n", onOff(controller))
		c, err := runCurve(o, rates, poisson, controller, errW)
		if err != nil {
			return err
		}
		if controller {
			rep.On = c
		} else {
			rep.Off = c
		}
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(errW, "mdrs-loadgen: wrote controller on/off curves (%d steady points + %d ramp buckets each) to %s\n",
		len(rep.Off.Points), len(rep.Off.Ramp), o.out)
	return nil
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// runCurve runs one comparison arm: the steady sweep, then a ramp to
// the highest offered rate to exercise the controller's transient
// response.
func runCurve(o options, rates []float64, poisson bool, controller bool, errW io.Writer) (curve, error) {
	r := rand.New(rand.NewSource(o.seed))
	w, err := newWorkload(r, o.templates, o.joins, o.joinsSpread, o.zipfS, o.deadlineFrac, o.deadline)
	if err != nil {
		return curve{}, err
	}
	met := mdrs.NewMetrics()
	svc, err := newService(o, met, o.maxBatch, o.batchWindow, o.cacheSize, controller)
	if err != nil {
		return curve{}, err
	}
	defer svc.Close()
	tgt := &inprocTarget{svc: svc, w: w}

	c := curve{Controller: controller}
	ctx := context.Background()
	for _, rps := range rates {
		pt := runPoint(ctx, tgt, w, met, rps, o.duration, poisson, r)
		c.Points = append(c.Points, pt)
		logPoint(errW, pt)
	}
	peak := rates[len(rates)-1]
	for _, rate := range rates {
		if rate > peak {
			peak = rate
		}
	}
	c.Ramp = runShaped(ctx, tgt, w, shapeRamp, peak, o.duration, o.shapeBuckets, poisson, r)
	for _, pt := range c.Ramp {
		logPoint(errW, pt)
	}
	return c, nil
}

// parseRates parses the -rps comma list into positive rates.
func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad -rps entry %q (want positive numbers)", part)
		}
		rates = append(rates, v)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("-rps is empty")
	}
	return rates, nil
}
