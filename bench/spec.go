package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specPath is where the harness finds the benchmark's contract: the
// harness always runs with bench/ as its working directory (run.sh,
// `go run .` and `go test` all do), and BENCHMARK.json sits one level up.
const specPath = "../BENCHMARK.json"

// metricSpec is one metric of BENCHMARK.json. Bound is the share of the
// baseline's median by which the metric may worsen; per-layer metrics
// have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is BENCHMARK.json: the single source of metric names, units and
// bounds. The harness emits exactly the metrics it lists, so a metric
// can neither be printed without a unit nor silently dropped.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec() (*spec, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec (run the harness from bench/): %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", specPath, err)
	}
	return &s, nil
}

// metrics returns the end-to-end list for an untraced run and the
// per-layer list for a traced one.
func (s *spec) metrics(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}
