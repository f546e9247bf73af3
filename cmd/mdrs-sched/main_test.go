package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdrs"
)

func writePlan(t *testing.T, joins int) string {
	t.Helper()
	p := mdrs.MustRandomPlan(rand.New(rand.NewSource(4)), mdrs.DefaultGenConfig(joins))
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSummaryOutput(t *testing.T) {
	path := writePlan(t, 5)
	var sb strings.Builder
	if err := run(&sb, options{planPath: path, sites: 8, eps: 0.5, f: 0.7}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"plan: 5 joins", "TreeSchedule response:",
		"Synchronous  response:", "OPTBOUND lower bound:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunVerboseListsPlacements(t *testing.T) {
	path := writePlan(t, 4)
	var sb strings.Builder
	if err := run(&sb, options{planPath: path, sites: 6, eps: 0.5, f: 0.7, verbose: true}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "phase 0") || !strings.Contains(out, "scan(") {
		t.Fatalf("verbose output missing placements:\n%s", out)
	}
	if !strings.Contains(out, "rooted") {
		t.Fatalf("verbose output missing rooted probes:\n%s", out)
	}
}

func TestRunJSONOutput(t *testing.T) {
	path := writePlan(t, 3)
	var sb strings.Builder
	if err := run(&sb, options{planPath: path, sites: 4, eps: 0.5, f: 0.7, asJSON: true}); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Response float64 `json:"response_seconds"`
		Sites    int     `json:"sites"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded.Sites != 4 || decoded.Response <= 0 {
		t.Fatalf("decoded: %+v", decoded)
	}
}

func TestRunChartOutput(t *testing.T) {
	path := writePlan(t, 3)
	var sb strings.Builder
	if err := run(&sb, options{planPath: path, sites: 4, eps: 0.5, f: 0.7, chart: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "utilization:") || !strings.Contains(sb.String(), "site") {
		t.Fatalf("chart output missing bars:\n%s", sb.String())
	}
}

func batchOptions(sites int) options {
	return options{sites: sites, eps: 0.5, f: 0.7}
}

func TestRunBatch(t *testing.T) {
	p1 := writePlan(t, 4)
	p2 := writePlan(t, 6)
	var sb strings.Builder
	if err := runBatch(&sb, []string{p1, p2}, batchOptions(12)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"back-to-back:", "batched:", "4 joins", "6 joins"} {
		if !strings.Contains(out, want) {
			t.Fatalf("batch output missing %q:\n%s", want, out)
		}
	}
}

func TestRunBatchErrors(t *testing.T) {
	var sb strings.Builder
	if err := runBatch(&sb, []string{"/nonexistent.json"}, batchOptions(8)); err == nil {
		t.Error("missing batch file accepted")
	}
	p := writePlan(t, 3)
	bad := batchOptions(8)
	bad.eps = -1
	if err := runBatch(&sb, []string{p}, bad); err == nil {
		t.Error("invalid ε accepted")
	}
}

func TestRunBatchJSONOutput(t *testing.T) {
	p1 := writePlan(t, 4)
	p2 := writePlan(t, 5)
	o := batchOptions(10)
	o.asJSON = true
	var sb strings.Builder
	if err := runBatch(&sb, []string{p1, p2}, o); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Response float64 `json:"response_seconds"`
		Sites    int     `json:"sites"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("-json batch output is not pure JSON: %v\n%s", err, sb.String())
	}
	if decoded.Sites != 10 || decoded.Response <= 0 {
		t.Fatalf("decoded: %+v", decoded)
	}
}

func TestRunBatchVerboseListsPlacements(t *testing.T) {
	p1 := writePlan(t, 4)
	o := batchOptions(8)
	o.verbose = true
	var sb strings.Builder
	if err := runBatch(&sb, []string{p1, p1}, o); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "phase 0") || !strings.Contains(out, "scan(") {
		t.Fatalf("verbose batch output missing placements:\n%s", out)
	}
}

func TestRunBatchTraceWritesReplayableJSONL(t *testing.T) {
	p1 := writePlan(t, 4)
	p2 := writePlan(t, 6)
	o := batchOptions(12)
	o.tracePath = filepath.Join(t.TempDir(), "batch-trace.jsonl")
	var sb strings.Builder
	if err := runBatch(&sb, []string{p1, p2}, o); err != nil {
		t.Fatal(err)
	}
	tf, err := os.Open(o.tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	events, err := mdrs.ReadTrace(tf)
	if err != nil {
		t.Fatalf("batch trace is not valid JSONL: %v", err)
	}
	if len(mdrs.TraceAssignments(events)) == 0 {
		t.Fatal("batch trace has no place events")
	}
}

func TestRunBatchTraceText(t *testing.T) {
	p1 := writePlan(t, 5)
	o := batchOptions(8)
	o.traceText = true
	var sb strings.Builder
	if err := runBatch(&sb, []string{p1}, o); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"decision trace (", "phase", "place"} {
		if !strings.Contains(out, want) {
			t.Fatalf("batch trace text missing %q:\n%s", want, out)
		}
	}
}

func TestRunBatchTraceFlushedOnError(t *testing.T) {
	// A failing run must still leave a complete, parseable trace file:
	// the sinks are flushed and closed on every path, not only success.
	p1 := writePlan(t, 4)
	o := batchOptions(10)
	o.tracePath = filepath.Join(t.TempDir(), "partial.jsonl")
	var sb strings.Builder
	if err := runBatch(&sb, []string{p1, "/nonexistent.json"}, o); err == nil {
		t.Fatal("missing batch file accepted")
	}
	tf, err := os.Open(o.tracePath)
	if err != nil {
		t.Fatalf("trace file missing after failed run: %v", err)
	}
	defer tf.Close()
	if _, err := mdrs.ReadTrace(tf); err != nil {
		t.Fatalf("failed run left a truncated trace: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, options{planPath: filepath.Join(t.TempDir(), "missing.json"),
		sites: 8, eps: 0.5, f: 0.7}); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&sb, options{planPath: bad, sites: 8, eps: 0.5, f: 0.7}); err == nil {
		t.Error("malformed plan accepted")
	}
	good := writePlan(t, 3)
	if err := run(&sb, options{planPath: good, sites: 0, eps: 0.5, f: 0.7}); err == nil {
		t.Error("P = 0 accepted")
	}
	if err := run(&sb, options{planPath: good, sites: 4, eps: 2.0, f: 0.7}); err == nil {
		t.Error("ε = 2 accepted")
	}
}

func TestRunTraceWritesReplayableJSONL(t *testing.T) {
	path := writePlan(t, 5)
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	var sb strings.Builder
	o := options{planPath: path, sites: 8, eps: 0.5, f: 0.7,
		asJSON: true, tracePath: tracePath}
	if err := run(&sb, o); err != nil {
		t.Fatal(err)
	}

	tf, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	events, err := mdrs.ReadTrace(tf)
	if err != nil {
		t.Fatalf("trace is not valid JSONL: %v", err)
	}
	assigned := mdrs.TraceAssignments(events)
	if len(assigned) == 0 {
		t.Fatal("trace has no place events")
	}

	// The -json output and the trace describe the same schedule: the
	// trace's placement count must equal the schedule's clone count.
	var decoded struct {
		Phases []struct {
			Placements []struct {
				Sites []int `json:"sites"`
			} `json:"placements"`
		} `json:"phases"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatal(err)
	}
	clones := 0
	for _, ph := range decoded.Phases {
		for _, pl := range ph.Placements {
			clones += len(pl.Sites)
		}
	}
	if clones == 0 || len(assigned) != clones {
		t.Fatalf("trace has %d placements, schedule has %d clones", len(assigned), clones)
	}
}

func TestRunTraceTextRendersDecisions(t *testing.T) {
	path := writePlan(t, 4)
	var sb strings.Builder
	if err := run(&sb, options{planPath: path, sites: 6, eps: 0.5, f: 0.7,
		traceText: true}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"decision trace (", "phase", "place"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace text missing %q:\n%s", want, out)
		}
	}
}

func TestRunTraceBadPath(t *testing.T) {
	path := writePlan(t, 3)
	var sb strings.Builder
	o := options{planPath: path, sites: 4, eps: 0.5, f: 0.7,
		tracePath: filepath.Join(t.TempDir(), "no-such-dir", "t.jsonl")}
	if err := run(&sb, o); err == nil {
		t.Fatal("unwritable trace path accepted")
	}
}

func TestRunOptimizeSummaryOutput(t *testing.T) {
	path := writePlan(t, 3)
	var sb strings.Builder
	o := options{planPath: path, sites: 8, eps: 0.5, f: 0.7,
		optimize: true, optCandidates: 8, optSeed: 1}
	if err := runOptimize(&sb, o); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"catalog: 4 relations", "enumerated systematically",
		"bound-pruned", "first plan (two-phase) response:", "best plan (candidate"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunOptimizeSampledPath(t *testing.T) {
	path := writePlan(t, 7)
	var sb strings.Builder
	o := options{planPath: path, sites: 8, eps: 0.5, f: 0.7,
		optimize: true, optCandidates: 6, optSeed: 3}
	if err := runOptimize(&sb, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "candidates: 6 (sampled)") {
		t.Fatalf("sampled path not taken:\n%s", sb.String())
	}
}

func TestRunOptimizeErrors(t *testing.T) {
	path := writePlan(t, 3)
	o := options{planPath: path, sites: 0, eps: 0.5, f: 0.7,
		optimize: true, optCandidates: 8, optSeed: 1}
	var sb strings.Builder
	if err := runOptimize(&sb, o); err == nil {
		t.Error("non-positive site count accepted")
	}
	o = options{planPath: path, sites: 8, eps: 0.5, f: 0.7,
		optimize: true, optCandidates: -1, optSeed: 1}
	if err := runOptimize(&sb, o); err == nil {
		t.Error("negative candidate count accepted")
	}
	// The search attaches no recorder to its per-candidate schedulers, so
	// a trace flag would be dropped silently: refuse it, writing no file.
	trace := filepath.Join(t.TempDir(), "t.jsonl")
	for _, o := range []options{
		{planPath: path, sites: 8, eps: 0.5, f: 0.7, optimize: true, optCandidates: 8, optSeed: 1, tracePath: trace},
		{planPath: path, sites: 8, eps: 0.5, f: 0.7, optimize: true, optCandidates: 8, optSeed: 1, traceText: true},
	} {
		sb.Reset()
		if err := runOptimize(&sb, o); err == nil || !strings.Contains(err.Error(), "-trace") || sb.Len() != 0 {
			t.Errorf("-optimize with a trace flag: err = %v, output %q", err, sb.String())
		}
	}
	if _, err := os.Stat(trace); err == nil {
		t.Error("rejected -optimize -trace still created the trace file")
	}
}
