package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdrs/internal/experiments"
	"mdrs/internal/obs"
)

func testConfig() experiments.Config {
	c := experiments.Quick()
	c.Queries = 4 // batch ablation groups queries in fours
	c.Sites = []int{10, 40}
	return c
}

func TestEmitSingleFigure(t *testing.T) {
	var sb strings.Builder
	report, err := emit(&sb, testConfig(), "6b", false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 6b") {
		t.Fatalf("output missing figure header:\n%s", sb.String()[:100])
	}
	if len(report.Figures) != 1 || report.Figures[0].Figure != "6b" {
		t.Fatalf("report figures = %+v, want one entry for 6b", report.Figures)
	}
	if report.Figures[0].Seconds < 0 || report.TotalSeconds < report.Figures[0].Seconds {
		t.Fatalf("implausible timings: %+v total %g", report.Figures, report.TotalSeconds)
	}
}

func TestEmitUnknownFigure(t *testing.T) {
	var sb strings.Builder
	_, err := emit(&sb, testConfig(), "9z", false)
	if err == nil {
		t.Fatal("unknown figure accepted")
	}
	// The error names the valid figures, from the table.
	if last := experiments.Figures[len(experiments.Figures)-1].ID; !strings.Contains(err.Error(), last) {
		t.Fatalf("unknown-figure error %q does not list the figures", err)
	}
}

// A failing emit still returns the report accumulated so far, so main
// can write the -benchjson and -metrics sinks before exiting non-zero.
func TestEmitReturnsReportOnError(t *testing.T) {
	var sb strings.Builder
	cfg := testConfig()
	report, err := emit(&sb, cfg, "9z", false)
	if err == nil {
		t.Fatal("unknown figure accepted")
	}
	if report == nil {
		t.Fatal("failed emit discarded the bench report")
	}
	if report.Queries != cfg.Queries || report.Seed != cfg.Seed {
		t.Fatalf("partial report lost its config: %+v", report)
	}
	path := filepath.Join(t.TempDir(), "partial.json")
	if err := writeReport(path, report); err != nil {
		t.Fatalf("partial report not writable: %v", err)
	}
}

func TestEmitAllCoversEveryRegisteredFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	var sb strings.Builder
	report, err := emit(&sb, testConfig(), "all", false)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, f := range experiments.Figures {
		if !strings.Contains(out, "Figure "+f.ID) {
			t.Fatalf("all-run missing figure %s", f.ID)
		}
	}
	if len(report.Figures) != len(experiments.Figures) {
		t.Fatalf("report covers %d figures, want %d", len(report.Figures), len(experiments.Figures))
	}
}

func TestEmitCSV(t *testing.T) {
	var sb strings.Builder
	if _, err := emit(&sb, testConfig(), "6b", true); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(sb.String(), "\n", 2)[0]
	if !strings.Contains(first, "sites,") {
		t.Fatalf("CSV header missing: %q", first)
	}
}

func TestEmitRejectsInvalidConfig(t *testing.T) {
	var sb strings.Builder
	if _, err := emit(&sb, experiments.Config{}, "5a", false); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// The -benchjson report must round-trip as machine-readable JSON with
// the fields future PRs diff against.
func TestWriteReport(t *testing.T) {
	var sb strings.Builder
	cfg := testConfig()
	report, err := emit(&sb, cfg, "order", false)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "figures.json")
	if err := writeReport(path, report); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchReport
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if got.Queries != cfg.Queries || got.Seed != cfg.Seed {
		t.Fatalf("report config = %+v, want queries %d seed %d", got, cfg.Queries, cfg.Seed)
	}
	if len(got.Figures) != 1 || got.Figures[0].Figure != "order" {
		t.Fatalf("report figures = %+v", got.Figures)
	}
}

// The -metrics snapshot must be machine-readable JSON whose counters
// reflect the regenerated figures.
func TestWriteMetrics(t *testing.T) {
	met := obs.NewMetrics()
	cfg := testConfig()
	cfg.Rec = met
	var sb strings.Builder
	if _, err := emit(&sb, cfg, "5a", false); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := writeMetrics(path, met); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Count int64 `json:"count"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v", err)
	}
	if snap.Counters["experiments.fig.5a"] != 1 || snap.Counters["experiments.schedules"] == 0 {
		t.Fatalf("counters missing: %v", snap.Counters)
	}
	if snap.Histograms["experiments.figure_seconds"].Count != 1 {
		t.Fatalf("figure timer missing: %v", snap.Histograms)
	}
}
