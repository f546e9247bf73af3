// Command mdrs-bench regenerates the paper's evaluation: every figure of
// Section 6 plus the ablations documented in DESIGN.md, printed as
// aligned text series.
//
// Usage:
//
//	mdrs-bench [-fig NAME|all] [-table2] [-queries N] [-seed S] [-quick]
//	           [-csv] [-workers N] [-metrics FILE]
//
// The figure names are the IDs of experiments.Figures; -h lists them.
// -workers bounds the goroutine pool that fans out each figure's
// per-query trials (0 = GOMAXPROCS); the output is byte-identical for
// every worker count. -cpuprofile and -memprofile write runtime/pprof
// profiles of the run. -metrics attaches an observability recorder to
// the run and writes its counters and timing histograms (per-figure
// wall time is experiments.figure_seconds) to FILE as JSON; per-layer
// speed is recorded by bench/, not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"mdrs/internal/experiments"
	"mdrs/internal/obs"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: "+figureNames()+" or all")
	table2 := flag.Bool("table2", false, "print Table 2 (experiment parameter settings)")
	queries := flag.Int("queries", 0, "override queries per data point (default: paper's 20)")
	seed := flag.Int64("seed", 0, "override workload seed")
	quick := flag.Bool("quick", false, "use the scaled-down Quick configuration")
	asCSV := flag.Bool("csv", false, "emit CSV instead of aligned text")
	workers := flag.Int("workers", 0, "trial worker pool size (0 = GOMAXPROCS)")
	metricsJSON := flag.String("metrics", "", "write run counters and timing histograms as JSON to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdrs-bench: %v\n", err)
		os.Exit(1)
	}
	defer stopProfiles()

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
	if *metricsJSON != "" {
		met = obs.NewMetrics()
		cfg.Rec = met
	}

	if *table2 {
		fmt.Print(experiments.Table2(cfg))
		fmt.Println()
	}

	// Write the metrics sink even when a figure fails: exiting first
	// would discard every counter the recorder collected, leaving partial
	// runs with nothing to diagnose from.
	err = emit(os.Stdout, cfg, *fig, *asCSV)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdrs-bench: %v\n", err)
	}
	failed := err != nil
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
// or CSV.
func emit(w io.Writer, cfg experiments.Config, name string, asCSV bool) error {
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
		fig, err := f.Generate(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", f.ID, err)
		}
		if err := write(w, fig); err != nil {
			return err
		}
	}
	if !known {
		return fmt.Errorf("unknown figure %q (want %s or all)", name, figureNames())
	}
	return nil
}
