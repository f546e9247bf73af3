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
	if err := emit(&sb, testConfig(), "6b", false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 6b") {
		t.Fatalf("output missing figure header:\n%s", sb.String()[:100])
	}
	if strings.Count(sb.String(), "Figure ") != 1 {
		t.Fatalf("-fig 6b emitted more than one figure:\n%s", sb.String())
	}
}

func TestEmitUnknownFigure(t *testing.T) {
	var sb strings.Builder
	err := emit(&sb, testConfig(), "9z", false)
	if err == nil {
		t.Fatal("unknown figure accepted")
	}
	// The error names the valid figures, from the table.
	if last := experiments.Figures[len(experiments.Figures)-1].ID; !strings.Contains(err.Error(), last) {
		t.Fatalf("unknown-figure error %q does not list the figures", err)
	}
}

func TestEmitAllCoversEveryRegisteredFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	var sb strings.Builder
	if err := emit(&sb, testConfig(), "all", false); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, f := range experiments.Figures {
		if !strings.Contains(out, "Figure "+f.ID) {
			t.Fatalf("all-run missing figure %s", f.ID)
		}
	}
}

func TestEmitCSV(t *testing.T) {
	var sb strings.Builder
	if err := emit(&sb, testConfig(), "6b", true); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(sb.String(), "\n", 2)[0]
	if !strings.Contains(first, "sites,") {
		t.Fatalf("CSV header missing: %q", first)
	}
}

func TestEmitRejectsInvalidConfig(t *testing.T) {
	var sb strings.Builder
	if err := emit(&sb, experiments.Config{}, "5a", false); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// The -metrics snapshot must be machine-readable JSON whose counters
// reflect the regenerated figures.
func TestWriteMetrics(t *testing.T) {
	met := obs.NewMetrics()
	cfg := testConfig()
	cfg.Rec = met
	var sb strings.Builder
	if err := emit(&sb, cfg, "5a", false); err != nil {
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
