// Benchmarks regenerating the paper's evaluation, one per table/figure
// (see DESIGN.md's experiment index) plus the ablations. Each runs a
// scaled-down sweep per iteration and reports the headline quantity of
// the figure as a custom metric, so `go test -bench=. -benchmem`
// reproduces the paper's qualitative results alongside the harness's
// own cost.
package experiments

import (
	"testing"

	"mdrs/internal/costmodel"
)

// benchConfig is a per-iteration-affordable experiment scale.
func benchConfig() Config {
	c := Quick()
	c.Queries = 2
	c.Sites = []int{10, 80}
	return c
}

// lastPoint returns the final y-value of the named series.
func lastPoint(b *testing.B, fig *Figure, name string) float64 {
	b.Helper()
	for _, s := range fig.Series {
		if s.Name == name {
			return s.Y[len(s.Y)-1]
		}
	}
	b.Fatalf("series %q missing from figure %s", name, fig.ID)
	return 0
}

// BenchmarkTable2Defaults regenerates Table 2 (parameter settings) and
// validates the defaults each iteration.
func BenchmarkTable2Defaults(b *testing.B) {
	c := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out := Table2(c); len(out) == 0 {
			b.Fatal("empty Table 2")
		}
		if err := costmodel.DefaultParams().Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5a regenerates Figure 5(a): effect of the granularity
// parameter f. Reports the speedup of f=0.9 over f=0.3 at the largest
// system, the figure's headline.
func BenchmarkFig5a(b *testing.B) {
	c := benchConfig()
	var speedup float64
	for i := 0; i < b.N; i++ {
		fig, err := Fig5a(c)
		if err != nil {
			b.Fatal(err)
		}
		speedup = lastPoint(b, fig, "TreeSchedule f=0.3") / lastPoint(b, fig, "TreeSchedule f=0.9")
	}
	b.ReportMetric(speedup, "f0.9-vs-f0.3-speedup")
}

// BenchmarkFig5b regenerates Figure 5(b): effect of the overlap ε.
// Reports TreeSchedule's improvement factor over Synchronous at ε=0.1
// (where sharing pays most).
func BenchmarkFig5b(b *testing.B) {
	c := benchConfig()
	var improvement float64
	for i := 0; i < b.N; i++ {
		fig, err := Fig5b(c)
		if err != nil {
			b.Fatal(err)
		}
		improvement = lastPoint(b, fig, "Synchronous ε=0.1") / lastPoint(b, fig, "TreeSchedule ε=0.1")
	}
	b.ReportMetric(improvement, "improvement-eps0.1")
}

// BenchmarkFig6a regenerates Figure 6(a): effect of query size. Reports
// the improvement factor at 50 joins on 20 sites.
func BenchmarkFig6a(b *testing.B) {
	c := benchConfig()
	var improvement float64
	for i := 0; i < b.N; i++ {
		fig, err := Fig6a(c)
		if err != nil {
			b.Fatal(err)
		}
		improvement = lastPoint(b, fig, "Synchronous P=20") / lastPoint(b, fig, "TreeSchedule P=20")
	}
	b.ReportMetric(improvement, "improvement-50joins")
}

// BenchmarkFig6b regenerates Figure 6(b): TreeSchedule vs the OPTBOUND
// lower bound. Reports the 40-join optimality ratio at the largest
// system (the worst case of the sweep; the theorem allows 2d+1 = 7).
func BenchmarkFig6b(b *testing.B) {
	c := benchConfig()
	var ratio float64
	for i := 0; i < b.N; i++ {
		fig, err := Fig6b(c)
		if err != nil {
			b.Fatal(err)
		}
		ratio = lastPoint(b, fig, "ratio 40J")
	}
	b.ReportMetric(ratio, "optimality-ratio")
}

// BenchmarkMalleable regenerates ablation A1 (Section 7 vs CG_f).
func BenchmarkMalleable(b *testing.B) {
	c := benchConfig()
	var ratio float64
	for i := 0; i < b.N; i++ {
		fig, err := Malleable(c)
		if err != nil {
			b.Fatal(err)
		}
		ratio = lastPoint(b, fig, "Malleable GF") / lastPoint(b, fig, "LB of chosen N")
	}
	b.ReportMetric(ratio, "gf-vs-lb-ratio")
}

// BenchmarkListOrderAblation regenerates ablation A5 (sorted vs raw
// order list scheduling).
func BenchmarkListOrderAblation(b *testing.B) {
	c := benchConfig()
	var gain float64
	for i := 0; i < b.N; i++ {
		fig, err := OrderAblation(c)
		if err != nil {
			b.Fatal(err)
		}
		gain = lastPoint(b, fig, "arrival order") / lastPoint(b, fig, "sorted (paper)")
	}
	b.ReportMetric(gain, "sorted-order-gain")
}

// BenchmarkShelfAblation regenerates ablation A7 (MinShelf vs
// EarliestShelf phase packing).
func BenchmarkShelfAblation(b *testing.B) {
	c := benchConfig()
	var ratio float64
	for i := 0; i < b.N; i++ {
		fig, err := ShelfAblation(c)
		if err != nil {
			b.Fatal(err)
		}
		ratio = lastPoint(b, fig, "EarliestShelf") / lastPoint(b, fig, "MinShelf (paper)")
	}
	b.ReportMetric(ratio, "earliest-vs-minshelf")
}

// BenchmarkContentionAblation regenerates ablation A8 (disk
// time-sharing penalty), reporting the γ=0.3 cost factor.
func BenchmarkContentionAblation(b *testing.B) {
	c := benchConfig()
	var factor float64
	for i := 0; i < b.N; i++ {
		fig, err := ContentionAblation(c)
		if err != nil {
			b.Fatal(err)
		}
		factor = lastPoint(b, fig, "TreeSchedule @ γ_disk=0.3") /
			lastPoint(b, fig, "TreeSchedule @ γ_disk=0.0")
	}
	b.ReportMetric(factor, "gamma0.3-cost")
}

// BenchmarkMemoryAblation regenerates ablation A9 (memory-aware
// scheduling), reporting the 1 MB-vs-infinite response factor.
func BenchmarkMemoryAblation(b *testing.B) {
	c := benchConfig()
	var factor float64
	for i := 0; i < b.N; i++ {
		fig, err := MemoryAblation(c)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range fig.Series {
			if s.Name == "response" {
				factor = s.Y[0] / s.Y[len(s.Y)-1]
			}
		}
	}
	b.ReportMetric(factor, "tight-memory-cost")
}

// BenchmarkShapeAblation regenerates ablation A10 (plan shapes),
// reporting right-deep/bushy under TreeSchedule.
func BenchmarkShapeAblation(b *testing.B) {
	c := benchConfig()
	var factor float64
	for i := 0; i < b.N; i++ {
		fig, err := ShapeAblation(c)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range fig.Series {
			if s.Name == "TreeSchedule" {
				factor = s.Y[2] / s.Y[0] // right-deep over bushy
			}
		}
	}
	b.ReportMetric(factor, "rightdeep-vs-bushy")
}

// BenchmarkPlanSearchAblation regenerates ablation A11
// (scheduler-in-the-loop best-of-K plan search).
func BenchmarkPlanSearchAblation(b *testing.B) {
	c := benchConfig()
	var improvement float64
	for i := 0; i < b.N; i++ {
		fig, err := PlanSearchAblation(c)
		if err != nil {
			b.Fatal(err)
		}
		improvement = lastPoint(b, fig, "first plan (two-phase)") / lastPoint(b, fig, "best of 8")
	}
	b.ReportMetric(improvement, "bestofk-improvement")
}

// BenchmarkPipelineAblation regenerates ablation A12 (pipeline
// abstraction error), reporting the dataflow/analytic ratio.
func BenchmarkPipelineAblation(b *testing.B) {
	c := benchConfig()
	var ratio float64
	for i := 0; i < b.N; i++ {
		fig, err := PipelineAblation(c)
		if err != nil {
			b.Fatal(err)
		}
		ratio = lastPoint(b, fig, "ratio")
	}
	b.ReportMetric(ratio, "pipesim-vs-analytic")
}

// BenchmarkBatchAblation regenerates ablation A13 (multi-query
// batches), reporting serial/batched makespan at the largest system.
func BenchmarkBatchAblation(b *testing.B) {
	c := benchConfig()
	c.Queries = 4
	var speedup float64
	for i := 0; i < b.N; i++ {
		fig, err := BatchAblation(c)
		if err != nil {
			b.Fatal(err)
		}
		speedup = lastPoint(b, fig, "back-to-back") / lastPoint(b, fig, "batched (4 queries)")
	}
	b.ReportMetric(speedup, "batch-speedup")
}

// BenchmarkDeclusterAblation regenerates ablation A14 (rooted vs
// floating scans), reporting the data-placement cost factor.
func BenchmarkDeclusterAblation(b *testing.B) {
	c := benchConfig()
	var factor float64
	for i := 0; i < b.N; i++ {
		fig, err := DeclusterAblation(c)
		if err != nil {
			b.Fatal(err)
		}
		factor = lastPoint(b, fig, "declustered scans") / lastPoint(b, fig, "floating scans")
	}
	b.ReportMetric(factor, "placement-cost")
}
