package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// exactPerLayer are the per-layer metrics that are computed or counted,
// not timed: two traced runs of one seed must agree on them to the last
// digit.
var exactPerLayer = []string{
	"sched.clones_per_schedule",
	"optimizer.enumerated_op", "optimizer.scheduled_op", "optimizer.pruned_op", "optimizer.warm_hits_op",
	"engine.model_error_frac",
}

// TestQuickPass runs every workload twice at smoke-test size, untraced
// and traced, and checks what a full run relies on: every metric of
// BENCHMARK.json is produced under a well-formed name, every output
// check passes, the trace is written, the seed determines the inputs,
// and the computed metrics repeat exactly.
func TestQuickPass(t *testing.T) {
	if raceEnabled {
		t.Skip("skipped under the race detector, like cmd/mdrs-bench's timing tests")
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, ms := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
		if !name.MatchString(ms.Name) || ms.Unit == "" {
			t.Errorf("metric %q (unit %q) is not well formed", ms.Name, ms.Unit)
		}
	}
	if len(sp.Workloads) != 4 {
		t.Fatalf("BENCHMARK.json lists %d workloads, want 4", len(sp.Workloads))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	serverBin, err := buildServer(ctx)
	if err != nil {
		t.Fatal(err)
	}
	o := options{seed: 1, seconds: 0.25, quick: true}

	for _, listed := range sp.Workloads {
		t.Run(listed.Name, func(t *testing.T) {
			t.Parallel()
			var passes [2]map[string]float64
			var digests [2][]byte
			for pass := range passes {
				passes[pass] = map[string]float64{}
				for _, traced := range []bool{false, true} {
					res, err := runOnce(ctx, sp, listed.Name, serverBin, o, traced, io.Discard)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Correct || res.Attempted < 1 {
						t.Errorf("trace=%v: attempted %d, failed %d", traced, res.Attempted, res.Failed)
					}
					for _, ms := range sp.metrics(traced) {
						mv, ok := res.Metrics[ms.Name]
						if !ok || mv.Unit != ms.Unit {
							t.Errorf("metric %s: got %+v, want unit %s", ms.Name, mv, ms.Unit)
						}
						passes[pass][ms.Name] = mv.Value
					}
				}
				w, err := newWorkload(listed.Name, serverBin)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.setup(ctx, o.seed); err != nil {
					t.Fatal(err)
				}
				digests[pass] = w.digest()
				w.close()
			}

			exact := append([]string{"quality_ratio"}, exactPerLayer...)
			for _, m := range exact {
				if a, b := passes[0][m], passes[1][m]; a != b {
					t.Errorf("%s is not exact: %v then %v", m, a, b)
				}
			}
			if gap := passes[0]["serve.accounting_gap"]; gap != 0 {
				t.Errorf("serve.accounting_gap = %v, want 0", gap)
			}
			if s := passes[0]["e2e.optimize_share"] + passes[0]["e2e.schedule_share"] + passes[0]["e2e.run_share"]; s < 1-1e-6 || s > 1+1e-6 {
				t.Errorf("e2e shares sum to %v, want 1", s)
			}
			if !bytes.Equal(digests[0], digests[1]) {
				t.Error("the same seed generated different inputs")
			}
			f, err := os.Open(filepath.Join(outDir, "trace-"+listed.Name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			lines := 0
			for sc := bufio.NewScanner(f); sc.Scan(); lines++ {
				var s span
				if err := json.Unmarshal(sc.Bytes(), &s); err != nil || s.Name == "" || s.End < s.Start {
					t.Fatalf("trace line %d: %q: %v", lines+1, sc.Bytes(), err)
				}
			}
			if lines == 0 {
				t.Error("empty trace")
			}
		})
	}
}

// TestCompare checks what -compare must catch: a metric beyond its bound
// in its own direction, more failed operations than the baseline, and a
// worsening from a baseline of zero, which has no share to measure by.
func TestCompare(t *testing.T) {
	sp := &spec{EndToEnd: []metricSpec{
		{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
		{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	}}
	write := func(name string, throughput, latency float64, failed int64) string {
		env := envelope{Seed: 1, Workloads: []*workloadReport{{
			Name: "optimize", Attempted: []int64{1000}, Failed: []int64{failed},
			EndToEnd: map[string]*series{
				"throughput_ops_s": {Unit: "1/s", Median: throughput},
				"latency_p50_ms":   {Unit: "ms", Median: latency},
			},
		}}}
		data, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 100, 2, 0)
	for _, c := range []struct {
		name, a, b string
		want       string // part of the error; empty: must pass
	}{
		{"same", base, base, ""},
		{"within bounds", base, write("b.json", 80, 2.4, 0), ""},
		{"better", base, write("b.json", 200, 1, 0), ""},
		{"slower", base, write("b.json", 70, 2, 0), "optimize throughput_ops_s"},
		{"later", base, write("b.json", 100, 2.6, 0), "optimize latency_p50_ms"},
		{"one failure", base, write("b.json", 100, 2, 1), "optimize failed operations"},
		{"fewer failures", write("a.json", 100, 2, 2), write("b.json", 100, 2, 1), ""},
		{"up from zero", write("a.json", 100, 0, 0), write("b.json", 100, 1, 0), "optimize latency_p50_ms"},
		{"zero twice", write("a.json", 100, 0, 0), write("b.json", 100, 0, 0), ""},
	} {
		err := compare(io.Discard, sp, c.a, c.b)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: got %v, want an error naming %q", c.name, err, c.want)
		}
	}
}
