// Command bench is the repository's benchmark: four closed-loop
// workloads that between them exercise every layer (query/plan,
// costmodel, opt, sched, optimizer, serve, engine and the mdrs-serve
// binary over HTTP), the end-to-end metrics a user of the system would
// see, and a traced pass that attributes each workload's time to layers
// and times every layer's public functions from outside. See README.md
// for the workloads, the metrics and how they interact.
//
// Usage, from this directory:
//
//	go run . -workload schedule_miss -seed 1 -seconds 10 -trace 0   one run, result JSON on the last line
//	go run . -seed 1 -out out/a.json                                every workload, three untraced rounds and a traced run each
//	go run . -compare out/a.json out/b.json                         apply BENCHMARK.json's bounds to two result files
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// options are the harness's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	out      string
}

// A run's shape. quick shrinks every part of it, for the test.
type shape struct {
	rounds    int           // untraced runs per workload when running all
	setups    int           // fewest set-ups per untraced run; setup_s is their median
	warmup    time.Duration // closed-loop warm-up before the timed phase
	slice     time.Duration // the timed phase is read out this often
	tracedOps int           // operations of the traced pass and of its untraced baseline
	thin      int           // the off-the-clock check keeps every thin-th member of its sample
}

func (o options) shape() shape {
	if o.quick {
		return shape{rounds: 1, setups: 1, warmup: 200 * time.Millisecond, slice: 100 * time.Millisecond, tracedOps: 20, thin: 4}
	}
	return shape{rounds: 3, setups: 3, warmup: 3 * time.Second, slice: time.Second, tracedOps: 200, thin: 1}
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print its result as JSON on the last line (default: run all, write -out)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated template, catalog and dataset")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the timed phase of an untraced run (default: BENCHMARK.json's run_seconds)")
	flag.IntVar(&o.trace, "trace", 0, "1: traced pass and layer probe, per-layer metrics; 0: timed phase, end-to-end metrics")
	flag.BoolVar(&o.quick, "quick", false, "smoke-test sizes: one round of 1 s, one set-up, 20 traced operations, a small probe")
	flag.StringVar(&o.out, "out", filepath.Join(outDir, "result.json"), "result file when running all")
	cmp := flag.Bool("compare", false, "compare two result files A B against BENCHMARK.json's bounds; exit 1 naming what broke")
	flag.Parse()
	if o.quick {
		o.seconds = 1
	}

	sp, err := loadSpec()
	if err == nil {
		if o.seconds == 0 {
			o.seconds = float64(sp.RunSeconds)
		}
		switch {
		case *cmp:
			if flag.NArg() != 2 {
				err = fmt.Errorf("-compare takes two result files")
			} else {
				err = compare(os.Stdout, sp, flag.Arg(0), flag.Arg(1))
			}
		default:
			// A signal cancels the context; every loop below watches it and
			// every spawned server is stopped by a deferred call on the way out.
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
			err = run(ctx, sp, o, os.Stdout)
			stop()
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// metricValue is one metric of a result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload prints on its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// samples is the number of latencies the percentiles were taken over.
	samples int
}

func run(ctx context.Context, sp *spec, o options, stdout io.Writer) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	serverBin, err := buildServer(ctx)
	if err != nil {
		return err
	}
	if o.workload == "" {
		return runAll(ctx, sp, serverBin, o, stdout)
	}
	res, err := runOnce(ctx, sp, o.workload, serverBin, o, o.trace != 0, stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// runOnce sets the named workload up, runs it untraced or traced, checks
// its outputs and returns every metric BENCHMARK.json lists for that
// kind of run.
func runOnce(ctx context.Context, sp *spec, name, serverBin string, o options, traced bool, log io.Writer) (*result, error) {
	w, err := newWorkload(name, serverBin)
	if err != nil {
		return nil, err
	}
	var (
		values map[string]float64
		res    = &result{}
	)
	if traced {
		values, err = runTraced(ctx, w, name, serverBin, o, res, log)
	} else {
		values, err = runTimed(ctx, w, o, res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res.Correct = res.Failed == 0
	res.Metrics = map[string]metricValue{}
	fmt.Fprintf(log, "%s seed=%d trace=%v attempted=%d failed=%d\n", name, o.seed, traced, res.Attempted, res.Failed)
	for _, ms := range sp.metrics(traced) {
		v, ok := values[ms.Name]
		if !ok {
			return nil, fmt.Errorf("%s: no value for metric %s", name, ms.Name)
		}
		res.Metrics[ms.Name] = metricValue{Value: v, Unit: ms.Unit}
		note := ""
		if strings.HasPrefix(ms.Name, "latency_") {
			note = fmt.Sprintf("  (n=%d)", res.samples)
		}
		fmt.Fprintf(log, "  %-32s %16.6g %s%s\n", ms.Name, v, ms.Unit, note)
	}
	return res, nil
}

const setupBudget = 500 * time.Millisecond

// runTimed is an untraced run: set-up (repeated, for a steady setup_s),
// warm-up, the timed closed-loop phase, and the off-the-clock check of a
// fixed sample of outputs.
func runTimed(ctx context.Context, w workload, o options, res *result) (map[string]float64, error) {
	sh := o.shape()
	var setupS []float64
	defer w.close()
	// A set-up of a millisecond needs more repeats than one of a second
	// for its median to be steady: repeat for setupBudget, within limits.
	for start := time.Now(); len(setupS) < sh.setups || (len(setupS) < 5*sh.setups && time.Since(start) < setupBudget); {
		w.close()
		t0 := time.Now()
		if err := w.setup(ctx, o.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	// The discarded set-ups' garbage should not be collected on the clock.
	runtime.GC()
	if _, err := driveFor(ctx, w, o.seed, phaseWarmup, sh.warmup, sh.warmup); err != nil {
		return nil, err
	}
	m, err := driveFor(ctx, w, o.seed, phaseTimed, time.Duration(o.seconds*float64(time.Second)), sh.slice)
	if err != nil {
		return nil, err
	}
	quality, checked, wrong, err := w.verify(sh.thin)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	if len(m.lat) == 0 {
		return nil, fmt.Errorf("no operation succeeded (%d attempted)", m.attempted)
	}
	res.Attempted, res.Failed, res.samples = m.attempted+int64(checked), m.failed+int64(wrong), len(m.lat)
	var all slice
	for _, s := range m.slices {
		all.ops += s.ops
		all.use.add(s.use)
	}
	return map[string]float64{
		"setup_s":          median(setupS),
		"throughput_ops_s": m.sliceMedian(func(s slice) float64 { return float64(s.ops) / s.wall.Seconds() }),
		"latency_p50_ms":   percentile(m.lat, 0.50),
		"latency_p99_ms":   percentile(m.lat, 0.99),
		"cpu_ms_op":        m.sliceMedian(func(s slice) float64 { return float64(s.use.cpu) / 1e6 / float64(s.ops) }),
		// What an operation allocates does not depend on the host's speed,
		// so these two are taken over the whole phase: a slice in which a
		// pooled buffer has to be allocated again is part of the cost, and
		// a median over slices would report whichever kind is in the majority.
		"allocs_op":     float64(all.use.mallocs) / float64(all.ops),
		"alloc_kb_op":   float64(all.use.bytes) / 1024 / float64(all.ops),
		"quality_ratio": quality,
	}, nil
}

// runTraced is a traced run: one client issues a fixed number of
// operations untraced, then the same number traced — spans around every
// call into a layer, the layer calls beneath it replayed as children —
// and then the layer probe times every layer directly. Everything is
// bounded by count, not time, so the counters repeat exactly.
func runTraced(ctx context.Context, w workload, name, serverBin string, o options, res *result, log io.Writer) (map[string]float64, error) {
	sh := o.shape()
	defer w.close()
	if err := w.setup(ctx, o.seed); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ref := []float64{hostRef()}
	base, err := driveOps(ctx, w, o.seed, phaseBaseline, sh.tracedOps, nil)
	if err != nil {
		return nil, err
	}
	r0, err := w.read()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := driveOps(ctx, w, o.seed, phaseTraced, sh.tracedOps, tr)
	if err != nil {
		return nil, err
	}
	r1, err := w.read()
	if err != nil {
		return nil, err
	}
	if len(base.lat) == 0 || len(traced.lat) == 0 {
		return nil, fmt.Errorf("no traced operation succeeded (%d attempted)", traced.attempted)
	}
	res.Attempted, res.Failed, res.samples = traced.attempted, traced.failed, len(traced.lat)
	ref = append(ref, hostRef())

	v, searches, err := layerProbe(ctx, w.probeInputs(), o.seed, serverBin, o.quick)
	if err != nil {
		return nil, err
	}
	ref = append(ref, hostRef())
	if len(tr.searches) > 0 {
		searches = tr.searches
	}
	ledger(v, searches)

	stats := tr.summarise()
	fmt.Fprintf(log, "%s trace: %d operations, %d spans\n", name, tr.op, len(tr.spans))
	printSpans(log, stats)
	if err := tr.write(filepath.Join(outDir, "trace-"+name+".jsonl")); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	v["trace.unattributed_frac"] = unattributed(stats)
	v["trace.overhead_frac"] = percentile(traced.lat, 0.5)/percentile(base.lat, 0.5) - 1
	if run := total(stats, "engine.Run"); run > 0 {
		// The workload executes queries itself: its own segments replace
		// the probe's estimate of the shares.
		opt := total(stats, "serve.Optimize")
		sch := total(stats, "plan.prepare") + total(stats, "serve.Schedule")
		run += total(stats, "check")
		v["e2e.optimize_share"], v["e2e.schedule_share"], v["e2e.run_share"] = opt/(opt+sch+run), sch/(opt+sch+run), run/(opt+sch+run)
	}

	d := func(name string) float64 { return float64(r1.serve[name] - r0.serve[name]) }
	ops := float64(traced.attempted)
	v["serve.cache_hit_rate"] = ratio(d("serve.cache_hits"), d("serve.cache_hits")+d("serve.cache_misses"))
	v["serve.evictions_op"] = d("serve.cache_evictions") / ops
	v["serve.shed_frac"] = (d("serve.rejected") + d("serve.optimize_rejected")) / ops
	c := r1.serve
	v["serve.accounting_gap"] = float64(c["serve.requests"] - c["serve.delivered"] - c["serve.rejected"] - c["serve.cancelled"] - c["serve.closed_rejects"] - c["serve.failed"] +
		c["serve.optimize_searches"] - c["serve.optimize_delivered"] - c["serve.optimize_failed"])
	v["costmodel.memo_hit_rate"] = ratio(float64(r1.memoHits), float64(r1.memoHits+r1.memoMisses))
	v["go.gc_cycles"] = float64(r1.gcCycles - r0.gcCycles)
	v["go.gc_pause_ms"] = float64(r1.gcPause-r0.gcPause) / 1e6
	v["host.ref_ms"] = median(ref)
	v["host.ref_spread"] = (slices.Max(ref) - slices.Min(ref)) / median(ref)
	return v, nil
}

// ratio is a/b, and 0 where nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hostRef times a fixed piece of work that none of the repository's code
// takes part in — SHA-256 over 32 MiB — in milliseconds. When it moves
// between two runs, the host changed speed, not the code.
func hostRef() float64 {
	buf := make([]byte, 1<<20)
	h := sha256.New()
	h.Write(buf) // untimed: the first pass pays for the buffer's pages
	t0 := time.Now()
	for i := 0; i < 32; i++ {
		h.Write(buf)
	}
	h.Sum(nil)
	return float64(time.Since(t0)) / 1e6
}

// envelope is the result file of a run over all workloads: where and
// when the numbers were produced, and per workload every end-to-end
// metric as the median of its rounds, with the rounds beside it, and
// every per-layer metric of the traced run.
type envelope struct {
	Host       string            `json:"host"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"commit"`
	Seed       int64             `json:"seed"`
	Start      time.Time         `json:"start"`
	Seconds    float64           `json:"seconds"`
	Rounds     int               `json:"rounds"`
	Workloads  []*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string  `json:"name"`
	Attempted []int64 `json:"attempted"` // per round, then the traced run
	Failed    []int64 `json:"failed"`
	// Samples is, per round, the number of latencies behind the percentiles.
	Samples  []int                  `json:"latency_samples"`
	EndToEnd map[string]*series     `json:"end_to_end"`
	PerLayer map[string]metricValue `json:"per_layer"`
}

type series struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Rounds []float64 `json:"rounds"`
}

// minTimedOps is the fewest successful timed operations a workload must
// complete over its rounds, so that its p99 has at least ten samples
// beyond it.
const minTimedOps = 1000

// runAll runs every workload: the untraced rounds interleaved
// round-robin, so that slow drift of the host hits all workloads alike,
// then one traced run each. It writes the envelope whatever the runs
// found, and then fails if an operation failed or a workload completed
// too few.
func runAll(ctx context.Context, sp *spec, serverBin string, o options, stdout io.Writer) error {
	host, _ := os.Hostname() // recorded for the reader; empty is fine
	env := &envelope{
		Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(ctx), Seed: o.seed, Start: time.Now().UTC(), Seconds: o.seconds, Rounds: o.shape().rounds,
	}
	for _, w := range sp.Workloads {
		env.Workloads = append(env.Workloads, &workloadReport{Name: w.Name, EndToEnd: map[string]*series{}, PerLayer: map[string]metricValue{}})
	}
	for round := 0; round <= env.Rounds; round++ {
		for _, rep := range env.Workloads {
			traced := round == env.Rounds
			res, err := runOnce(ctx, sp, rep.Name, serverBin, o, traced, stdout)
			if err != nil {
				return err
			}
			rep.Attempted = append(rep.Attempted, res.Attempted)
			rep.Failed = append(rep.Failed, res.Failed)
			if traced {
				rep.PerLayer = res.Metrics
				continue
			}
			rep.Samples = append(rep.Samples, res.samples)
			for name, mv := range res.Metrics {
				s := rep.EndToEnd[name]
				if s == nil {
					s = &series{Unit: mv.Unit}
					rep.EndToEnd[name] = s
				}
				s.Rounds = append(s.Rounds, mv.Value)
				s.Median = median(s.Rounds)
			}
		}
	}
	data, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\n%s on %s (nproc %d, GOMAXPROCS %d, %s, commit %s), seed %d: medians of %d rounds of %g s\n",
		env.Start.Format(time.RFC3339), env.Host, env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit, env.Seed, env.Rounds, env.Seconds)
	var broke []string
	for _, rep := range env.Workloads {
		failed, attempted := rep.failures()
		timed := 0
		for _, n := range rep.Samples {
			timed += n
		}
		fmt.Fprintf(stdout, "%s: failed %d of %d attempted, %d timed operations\n", rep.Name, failed, attempted, timed)
		for _, ms := range sp.EndToEnd {
			s := rep.EndToEnd[ms.Name]
			fmt.Fprintf(stdout, "  %-32s %16.6g %-8s rounds %v\n", ms.Name, s.Median, ms.Unit, s.Rounds)
		}
		if failed > 0 {
			broke = append(broke, fmt.Sprintf("%s: %d of %d operations failed", rep.Name, failed, attempted))
		}
		if !o.quick && timed < minTimedOps {
			broke = append(broke, fmt.Sprintf("%s: %d timed operations, want at least %d", rep.Name, timed, minTimedOps))
		}
	}
	fmt.Fprintf(stdout, "wrote %s\n", o.out)
	if len(broke) > 0 {
		return errors.New(strings.Join(broke, "\n  "))
	}
	return nil
}

// failures sums the workload's failed and attempted operations over its
// rounds and its traced run.
func (r *workloadReport) failures() (failed, attempted int64) {
	for i := range r.Attempted {
		failed += r.Failed[i]
		attempted += r.Attempted[i]
	}
	return failed, attempted
}

// commit names the checkout's commit where there is a git repository to
// ask; the driver's checkouts have none.
func commit(ctx context.Context) string {
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
