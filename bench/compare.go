package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// exactTolerance is the bound applied to metrics that are computed, not
// timed: with the same seed they repeat exactly, so any worsening is a
// change in what the program outputs.
const exactTolerance = 1e-9

var exactMetrics = map[string]bool{"quality_ratio": true}

func readEnvelope(path string) (*envelope, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &env, nil
}

// worsening is by how much b is worse than the baseline a, as a share of
// a, in the metric's own direction. A zero baseline has no shares: any
// worsening of it is infinite, and so beyond every bound.
func worsening(a, b float64, better string) float64 {
	d := b - a
	if better == "higher" {
		d = -d
	}
	if a == 0 {
		if d == 0 {
			return 0
		}
		return math.Copysign(math.Inf(1), d)
	}
	return d / math.Abs(a)
}

// compare checks result file B against baseline A: for every workload
// and end-to-end metric, B's median may be worse than A's by at most the
// metric's bound, in the metric's own direction, and B may not fail a
// larger share of its operations than A. It prints every pairing and
// returns an error naming the ones that broke.
func compare(w io.Writer, sp *spec, pathA, pathB string) error {
	a, err := readEnvelope(pathA)
	if err != nil {
		return err
	}
	b, err := readEnvelope(pathB)
	if err != nil {
		return err
	}
	if a.Seed != b.Seed {
		fmt.Fprintf(w, "note: seeds differ (%d, %d); computed metrics will too\n", a.Seed, b.Seed)
	}
	var broke []string
	for _, ra := range a.Workloads {
		var rb *workloadReport
		for _, r := range b.Workloads {
			if r.Name == ra.Name {
				rb = r
			}
		}
		if rb == nil {
			broke = append(broke, ra.Name+": missing from "+pathB)
			continue
		}
		fmt.Fprintf(w, "%s\n", ra.Name)
		// Failed operations count in no throughput and no latency, so they
		// are held to a bound of their own: none more than the baseline.
		failedA, attemptedA := ra.failures()
		failedB, attemptedB := rb.failures()
		verdict := "ok"
		if ratio(float64(failedB), float64(attemptedB)) > ratio(float64(failedA), float64(attemptedA)) {
			verdict = "WORSE"
			broke = append(broke, fmt.Sprintf("%s failed operations: %d of %d -> %d of %d", ra.Name, failedA, attemptedA, failedB, attemptedB))
		}
		fmt.Fprintf(w, "  %-20s %7d of %-7d -> %7d of %-7d %s\n", "failed", failedA, attemptedA, failedB, attemptedB, verdict)
		for _, ms := range sp.EndToEnd {
			sa, sb := ra.EndToEnd[ms.Name], rb.EndToEnd[ms.Name]
			if sa == nil || sb == nil {
				broke = append(broke, fmt.Sprintf("%s %s: missing", ra.Name, ms.Name))
				continue
			}
			worse := worsening(sa.Median, sb.Median, ms.Better)
			bound := ms.Bound
			if exactMetrics[ms.Name] {
				bound = exactTolerance
			}
			verdict := "ok"
			if worse > bound {
				verdict = "WORSE"
				broke = append(broke, fmt.Sprintf("%s %s: %.6g -> %.6g %s, %.2f%% worse, bound %.2f%%",
					ra.Name, ms.Name, sa.Median, sb.Median, ms.Unit, 100*worse, 100*bound))
			}
			fmt.Fprintf(w, "  %-20s %14.6g -> %14.6g %-6s %+7.2f%% worse (bound %.2f%%) %s\n",
				ms.Name, sa.Median, sb.Median, ms.Unit, 100*worse, 100*bound, verdict)
		}
		// The host's own speed in each file, to tell a host that changed
		// from a program that did.
		for _, name := range []string{"host.ref_ms", "host.ref_spread"} {
			fmt.Fprintf(w, "  %-20s %14.6g    %14.6g %s\n", name, ra.PerLayer[name].Value, rb.PerLayer[name].Value, ra.PerLayer[name].Unit)
		}
	}
	if len(broke) > 0 {
		msg := fmt.Sprintf("%d regressions beyond bound:", len(broke))
		for _, s := range broke {
			msg += "\n  " + s
		}
		return fmt.Errorf("%s", msg)
	}
	return nil
}
