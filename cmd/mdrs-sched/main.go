// Command mdrs-sched schedules a JSON-encoded bushy hash-join plan
// (e.g. produced by mdrs-plangen) on a simulated shared-nothing system
// and prints the resulting parallel schedule: phases, per-operator
// degrees and site assignments, response time, and its ratio to the
// OPTBOUND lower bound.
//
// Usage:
//
//	mdrs-plangen -joins 8 | mdrs-sched -sites 32 -eps 0.5 -f 0.7
//	mdrs-sched -plan plan.json -sites 32 [-v] [-json] [-chart]
//	mdrs-sched -plan plan.json -trace trace.jsonl     # decision trace as JSONL
//	mdrs-sched -plan plan.json -trace-text            # decision trace, pretty
//	mdrs-sched -sites 32 q1.json q2.json q3.json      # multi-query batch
//	mdrs-sched -plan plan.json -optimize              # bound-pruned plan search
//
// -optimize discards the input plan's join order and re-optimizes its
// relation catalog with the bound-pruned scheduler-in-the-loop search
// (see -opt-candidates, -opt-seed, -opt-exhaustive-joins);
// -json, -v, and -chart then describe the winning candidate's schedule;
// -trace and -trace-text are rejected, because the search attaches no
// recorder to its per-candidate schedulers.
//
// Batch mode honors the same output flags as single-query mode: -json
// emits the combined batch schedule, -v lists its placements, -trace
// and -trace-text record the batch scheduling decisions.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"mdrs"
)

// options carries the full mdrs-sched flag surface.
type options struct {
	planPath  string
	sites     int
	eps, f    float64
	verbose   bool
	asJSON    bool
	chart     bool
	tracePath string // decision trace JSONL destination ("" = off)
	traceText bool   // pretty-print the decision trace after the summary

	// The -optimize mode: re-optimize the input plan's relations with
	// the bound-pruned scheduler-in-the-loop search instead of
	// scheduling the plan as given.
	optimize      bool
	optCandidates int   // sample size K for large joins
	optSeed       int64 // candidate-sampling seed
	optExJoins    int   // systematic-enumeration threshold (0 = default)
}

func main() {
	var o options
	flag.StringVar(&o.planPath, "plan", "-", "plan JSON file, or - for stdin")
	flag.IntVar(&o.sites, "sites", 32, "number of system sites P")
	flag.Float64Var(&o.eps, "eps", 0.5, "resource overlap parameter ε in [0,1]")
	flag.Float64Var(&o.f, "f", 0.7, "coarse-granularity parameter f")
	flag.BoolVar(&o.verbose, "v", false, "print every operator placement")
	flag.BoolVar(&o.asJSON, "json", false, "emit the TreeSchedule as JSON and exit")
	flag.BoolVar(&o.chart, "chart", false, "render per-site load bars and utilization")
	flag.StringVar(&o.tracePath, "trace", "", "write the scheduler's decision trace to this file as JSON lines")
	flag.BoolVar(&o.traceText, "trace-text", false, "pretty-print the scheduler's decision trace")
	flag.BoolVar(&o.optimize, "optimize", false, "re-optimize the plan's relations with the bound-pruned plan search instead of scheduling the plan as given")
	flag.IntVar(&o.optCandidates, "opt-candidates", 8, "plan-search sample size K for join counts above the enumeration threshold")
	flag.Int64Var(&o.optSeed, "opt-seed", 1, "plan-search candidate-sampling seed")
	flag.IntVar(&o.optExJoins, "opt-exhaustive-joins", 0, "largest join count enumerated systematically instead of sampled (0 = search default)")
	flag.Parse()

	if flag.NArg() > 0 {
		if o.optimize {
			fmt.Fprintln(os.Stderr, "mdrs-sched: -optimize takes a single plan (no positional arguments)")
			os.Exit(1)
		}
		// Batch mode: every positional argument is a plan file; all
		// queries are scheduled together with inter-query sharing.
		if err := runBatch(os.Stdout, flag.Args(), o); err != nil {
			fmt.Fprintf(os.Stderr, "mdrs-sched: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if o.optimize {
		if err := runOptimize(os.Stdout, o); err != nil {
			fmt.Fprintf(os.Stderr, "mdrs-sched: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintf(os.Stderr, "mdrs-sched: %v\n", err)
		os.Exit(1)
	}
}

// recorders assembles the recorder stack the flags ask for: a JSONL
// tracer, an in-memory capture for -trace-text, or nothing (the free
// default). The returned close function flushes and closes the trace
// file; callers must run it on every path, including failed ones, so
// the trace is never left truncated in the writer's buffer.
func (o options) recorders() (mdrs.Recorder, *mdrs.TraceCapture, func() error, error) {
	var recs []mdrs.Recorder
	var tracer *mdrs.Tracer
	var tf *os.File
	if o.tracePath != "" {
		var err error
		tf, err = os.Create(o.tracePath)
		if err != nil {
			return nil, nil, nil, err
		}
		tracer = mdrs.NewTracer(tf)
		recs = append(recs, tracer)
	}
	var capture *mdrs.TraceCapture
	if o.traceText {
		capture = mdrs.NewTraceCapture()
		recs = append(recs, capture)
	}
	closeSinks := func() error {
		if tf == nil {
			return nil
		}
		err := tracer.Flush()
		if cerr := tf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing %s: %w", o.tracePath, err)
		}
		return nil
	}
	return mdrs.MultiRecorder(recs...), capture, closeSinks, nil
}

// runBatch schedules several plans as one workload and compares the
// batch makespan against back-to-back execution. The recorder flags
// observe the batch call only: the per-query baselines reuse
// (phase, operator, clone) keys across queries and would collide in a
// replayed trace.
func runBatch(w io.Writer, paths []string, o options) (err error) {
	ov, err := mdrs.NewOverlap(o.eps)
	if err != nil {
		return err
	}
	ts := mdrs.TreeScheduler{Model: mdrs.DefaultCostModel(), Overlap: ov, P: o.sites, F: o.f}

	rec, capture, closeSinks, err := o.recorders()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeSinks(); err == nil {
			err = cerr
		}
	}()

	var trees []*mdrs.TaskTree
	serial := 0.0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		p, err := mdrs.DecodePlan(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		_, tt, err := mdrs.PrepareQuery(p)
		if err != nil {
			return err
		}
		s, err := ts.Schedule(tt)
		if err != nil {
			return err
		}
		if !o.asJSON {
			fmt.Fprintf(w, "%-30s %2d joins  alone: %9.3f s\n", path, p.Joins(), s.Response)
		}
		serial += s.Response
		trees = append(trees, tt)
	}
	bts := ts
	bts.Rec = rec
	batch, err := bts.ScheduleBatch(trees)
	if err != nil {
		return err
	}
	return o.writeSchedule(w, batch, capture, func() error {
		fmt.Fprintf(w, "\nback-to-back: %9.3f s\n", serial)
		fmt.Fprintf(w, "batched:      %9.3f s  (%.2fx faster via inter-query sharing)\n",
			batch.Response, serial/batch.Response)
		return nil
	})
}

// writeSchedule prints a schedule the one way every mode does: with
// -json its encoding and nothing else; otherwise the mode's own summary
// followed by what -chart, -v and -trace-text (a non-nil capture) add.
func (o options) writeSchedule(w io.Writer, s *mdrs.Schedule, capture *mdrs.TraceCapture, summary func() error) error {
	if o.asJSON {
		data, err := mdrs.EncodeScheduleJSON(s)
		if err != nil {
			return err
		}
		if _, err := w.Write(data); err != nil {
			return err
		}
		_, err = w.Write([]byte{'\n'})
		return err
	}
	if err := summary(); err != nil {
		return err
	}
	if o.chart {
		fmt.Fprintln(w)
		if err := mdrs.WriteScheduleText(w, s); err != nil {
			return err
		}
	}
	if o.verbose {
		for _, ph := range s.Phases {
			fmt.Fprintf(w, "\nphase %d (%d tasks): response %.3f s\n",
				ph.Index, len(ph.Tasks), ph.Response)
			for _, pl := range ph.Placements {
				tag := "float "
				if pl.Rooted {
					tag = "rooted"
				}
				fmt.Fprintf(w, "  %-14s %s N=%-3d T^par=%8.3f s  sites=%v\n",
					pl.Op.Name, tag, pl.Degree, pl.TPar, pl.Sites)
			}
		}
	}
	if capture != nil {
		fmt.Fprintf(w, "\ndecision trace (%d events):\n", len(capture.Events()))
		if err := mdrs.WriteTraceText(w, capture.Events()); err != nil {
			return err
		}
	}
	return nil
}

// readPlan loads the -plan input (a file or stdin).
func readPlan(o options) (*mdrs.PlanNode, error) {
	var data []byte
	var err error
	if o.planPath == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(o.planPath)
	}
	if err != nil {
		return nil, err
	}
	return mdrs.DecodePlan(data)
}

// runOptimize treats the input plan as a relation catalog and runs the
// bound-pruned scheduler-in-the-loop search over it: candidate join
// plans are enumerated (small joins) or sampled (large joins), each gets
// a cheap OPTBOUND lower bound and, if it survives, its phase bound, and
// only candidates whose bounds beat the running incumbent are fully
// scheduled. The winner is provably the same plan the unpruned search
// would pick.
func runOptimize(w io.Writer, o options) error {
	if o.tracePath != "" || o.traceText {
		return errors.New("-optimize records no decision trace (drop -trace and -trace-text)")
	}
	p, err := readPlan(o)
	if err != nil {
		return err
	}
	search, err := mdrs.NewPlanSearch(mdrs.Options{
		Sites: o.sites, Epsilon: o.eps, F: o.f,
	}, o.optCandidates)
	if err != nil {
		return err
	}
	search.ExhaustiveJoins = o.optExJoins
	res, err := search.Best(rand.New(rand.NewSource(o.optSeed)), p.Leaves())
	if err != nil {
		return err
	}

	return o.writeSchedule(w, res.Best.Schedule, nil, func() error {
		mode := "sampled"
		if res.Systematic {
			mode = "enumerated systematically"
		}
		fmt.Fprintf(w, "catalog: %d relations (from the %d-join input plan)\n",
			len(p.Leaves()), p.Joins())
		fmt.Fprintf(w, "system: P=%d 3-dimensional sites (CPU, disk, net), ε=%.2f, f=%.2f\n",
			o.sites, o.eps, o.f)
		fmt.Fprintf(w, "\ncandidates: %d (%s); bound-pruned %d (%d by the phase bound), fully scheduled %d\n",
			res.Enumerated, mode, res.Pruned, res.PhasePruned, res.Scheduled)
		fmt.Fprintf(w, "first plan (two-phase) response: %10.3f s\n",
			res.Candidates[0].Schedule.Response)
		fmt.Fprintf(w, "best plan (candidate %d) response: %9.3f s  (%.2fx better, bound %.3f s)\n",
			res.Best.Index, res.Best.Schedule.Response, res.Improvement(), res.Best.Bound)
		fmt.Fprintf(w, "best schedule: %d phases\n", len(res.Best.Schedule.Phases))
		return nil
	})
}

func run(w io.Writer, o options) (err error) {
	p, err := readPlan(o)
	if err != nil {
		return err
	}

	rec, capture, closeSinks, err := o.recorders()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeSinks(); err == nil {
			err = cerr
		}
	}()

	opts := mdrs.Options{Sites: o.sites, Epsilon: o.eps, F: o.f, Rec: rec}
	tree, err := mdrs.ScheduleQuery(p, opts)
	if err != nil {
		return err
	}
	return o.writeSchedule(w, tree, capture, func() error {
		bound, err := mdrs.OptBound(p, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "plan: %d joins, result %d tuples\n", p.Joins(), p.Tuples)
		fmt.Fprintf(w, "system: P=%d 3-dimensional sites (CPU, disk, net), ε=%.2f, f=%.2f\n",
			o.sites, o.eps, o.f)
		fmt.Fprintf(w, "\nTreeSchedule response: %10.3f s  (%d phases)\n",
			tree.Response, len(tree.Phases))
		fmt.Fprintf(w, "OPTBOUND lower bound:  %10.3f s  (TreeSchedule within %.2fx)\n",
			bound, tree.Response/bound)
		return nil
	})
}
