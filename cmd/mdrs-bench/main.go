// Command mdrs-bench regenerates the paper's evaluation: every figure of
// Section 6 plus the ablations documented in DESIGN.md, printed as
// aligned text series.
//
// Usage:
//
//	mdrs-bench [-fig NAME|all] [-table2] [-queries N] [-seed S] [-quick]
//	           [-workers N] [-benchjson FILE]
//
// The figure names are the IDs of experiments.Figures; -h lists them.
// -workers bounds the goroutine pool that fans out each figure's
// per-query trials (0 = GOMAXPROCS); the output is byte-identical for
// every worker count. -opt-bench measures the plan-search arms
// (two-phase strawman, unpruned pool, bound-pruned pool, streaming
// bound-interleaved) across a join-count sweep and writes
// BENCH_optimizer.json-format JSON to its argument, then exits;
// -opt-check replays the committed file's check corpus and fails on an
// identity or ledger regression. -cpuprofile and -memprofile write
// runtime/pprof profiles of any mode. -benchjson additionally records
// per-figure regeneration wall times to FILE as JSON (the benchReport
// struct below); per-layer speed is recorded by bench/, not here.
// -metrics attaches an observability recorder to the run and writes its
// counters and timing histograms to FILE as JSON; -debug-addr serves
// net/http/pprof and expvar (including the live metrics under the "mdrs"
// var) while the figures regenerate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mdrs/internal/experiments"
	"mdrs/internal/obs"
)

// benchReport is the machine-readable timing record written by
// -benchjson: configuration knobs that affect the numbers plus one wall
// time per regenerated figure.
type benchReport struct {
	Queries      int            `json:"queries"`
	Seed         int64          `json:"seed"`
	Workers      int            `json:"workers"`
	Quick        bool           `json:"quick"`
	Figures      []figureTiming `json:"figures"`
	TotalSeconds float64        `json:"total_seconds"`
}

type figureTiming struct {
	Figure  string  `json:"figure"`
	Seconds float64 `json:"seconds"`
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: "+figureNames()+" or all")
	table2 := flag.Bool("table2", false, "print Table 2 (experiment parameter settings)")
	queries := flag.Int("queries", 0, "override queries per data point (default: paper's 20)")
	seed := flag.Int64("seed", 0, "override workload seed")
	quick := flag.Bool("quick", false, "use the scaled-down Quick configuration")
	asCSV := flag.Bool("csv", false, "emit CSV instead of aligned text")
	workers := flag.Int("workers", 0, "trial worker pool size (0 = GOMAXPROCS)")
	benchJSON := flag.String("benchjson", "", "write per-figure timings as JSON to this file")
	metricsJSON := flag.String("metrics", "", "write run counters and timing histograms as JSON to this file")
	optBench := flag.String("opt-bench", "", "measure the plan-search arms across a join sweep, write JSON to this file, and exit")
	optCheck := flag.String("opt-check", "", "replay this committed BENCH_optimizer.json's check corpus and fail on identity or ledger regression, then exit")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof and /debug/vars on this address")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdrs-bench: %v\n", err)
		os.Exit(1)
	}
	defer stopProfiles()

	if *optBench != "" {
		if err := runOptBench(*optBench, *quick, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "mdrs-bench: opt-bench: %v\n", err)
			stopProfiles()
			os.Exit(1)
		}
		return
	}
	if *optCheck != "" {
		if err := runOptCheck(*optCheck); err != nil {
			fmt.Fprintf(os.Stderr, "mdrs-bench: opt-check: %v\n", err)
			stopProfiles()
			os.Exit(1)
		}
		return
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *queries > 0 {
		cfg.Queries = *queries
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Workers = *workers

	var met *obs.Metrics
	if *metricsJSON != "" || *debugAddr != "" {
		met = obs.NewMetrics()
		cfg.Rec = met
	}
	if *debugAddr != "" {
		addr, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdrs-bench: %v\n", err)
			os.Exit(1)
		}
		obs.PublishExpvar("mdrs", met)
		fmt.Fprintf(os.Stderr, "mdrs-bench: debug server on http://%s/debug/pprof/\n", addr)
	}

	if *table2 {
		fmt.Print(experiments.Table2(cfg))
		fmt.Println()
	}

	// Write the report and metrics sinks even when a figure fails:
	// exiting first would discard the timings of the figures that did
	// finish and every counter the recorder collected, leaving partial
	// runs with nothing to diagnose from.
	report, err := emit(os.Stdout, cfg, *fig, *asCSV)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdrs-bench: %v\n", err)
	}
	failed := err != nil
	if *benchJSON != "" {
		report.Quick = *quick
		if werr := writeReport(*benchJSON, report); werr != nil {
			fmt.Fprintf(os.Stderr, "mdrs-bench: %v\n", werr)
			failed = true
		}
	}
	if *metricsJSON != "" {
		if werr := writeMetrics(*metricsJSON, met); werr != nil {
			fmt.Fprintf(os.Stderr, "mdrs-bench: %v\n", werr)
			failed = true
		}
	}
	if failed {
		stopProfiles()
		os.Exit(1)
	}
}

// startProfiles starts the optional CPU profile and arms the optional
// exit-time heap profile. The returned stop is idempotent, so callers
// can both defer it and invoke it explicitly before os.Exit (which
// skips defers).
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mdrs-bench: memprofile: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "mdrs-bench: memprofile: %v\n", err)
			}
			f.Close()
		}
	}, nil
}

// writeMetrics renders the run's observability snapshot to path.
func writeMetrics(path string, m *obs.Metrics) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// figureNames lists the -fig values experiments.Figures accepts.
func figureNames() string {
	names := make([]string, len(experiments.Figures))
	for i, f := range experiments.Figures {
		names[i] = f.ID
	}
	return strings.Join(names, "|")
}

// emit regenerates one figure (or all of them) into w, as aligned text
// or CSV, timing each regeneration for the bench report. On error the
// report is still returned, holding the figures completed so far.
func emit(w io.Writer, cfg experiments.Config, name string, asCSV bool) (*benchReport, error) {
	report := &benchReport{Queries: cfg.Queries, Seed: cfg.Seed, Workers: cfg.Workers}
	write := experiments.WriteText
	if asCSV {
		write = experiments.WriteCSV
	}
	known := name == "all"
	for _, f := range experiments.Figures {
		if name != "all" && name != f.ID {
			continue
		}
		known = true
		start := time.Now()
		fig, err := f.Generate(cfg)
		if err != nil {
			return report, fmt.Errorf("%s: %w", f.ID, err)
		}
		secs := time.Since(start).Seconds()
		report.Figures = append(report.Figures, figureTiming{Figure: f.ID, Seconds: secs})
		report.TotalSeconds += secs
		if err := write(w, fig); err != nil {
			return report, err
		}
	}
	if !known {
		return report, fmt.Errorf("unknown figure %q (want %s or all)", name, figureNames())
	}
	return report, nil
}

// writeReport marshals the timing report to path.
func writeReport(path string, r *benchReport) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
