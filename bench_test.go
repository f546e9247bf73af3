// Benchmarks of the system's own cost: the list scheduler and
// TreeSchedule across sizes (Propositions 5.1 and 5.2) and one engine
// run. The figure and ablation benchmarks live with the harness in
// internal/repro/experiments.
package mdrs_test

import (
	"fmt"
	"math/rand"
	"testing"

	"mdrs"
	"mdrs/internal/costmodel"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
)

// BenchmarkOperatorScheduleScaling measures the core list scheduler's
// cost across operator counts and system sizes (Proposition 5.1 says
// O(MP(M + log P))).
func BenchmarkOperatorScheduleScaling(b *testing.B) {
	ov := resource.MustOverlap(0.5)
	for _, mp := range []struct{ m, p int }{
		{10, 16}, {50, 16}, {200, 16}, {50, 64}, {50, 140},
	} {
		b.Run(benchName("M", mp.m, "P", mp.p), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			ops := make([]*sched.Op, mp.m)
			for i := range ops {
				n := 1 + r.Intn(4)
				work := make([]sched.WorkRun, n)
				for k := range work {
					work[k] = sched.WorkRun{N: 1, W: mdrs.Vector{r.Float64(), r.Float64(), r.Float64()}}
				}
				ops[i] = &sched.Op{ID: i, Work: work}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sched.OperatorSchedule(mp.p, 3, ov, ops); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTreeScheduleComplexity measures end-to-end scheduling cost
// across query sizes (Proposition 5.2: O(JP(J + log P))).
func BenchmarkTreeScheduleComplexity(b *testing.B) {
	for _, joins := range []int{10, 20, 40, 80} {
		b.Run(benchName("J", joins, "P", 80), func(b *testing.B) {
			p := query.MustRandom(rand.New(rand.NewSource(1)), query.DefaultGenConfig(joins))
			tt := plan.MustNewTaskTree(plan.MustExpand(p))
			ts := sched.TreeScheduler{
				Model:   costmodel.Default(),
				Overlap: resource.MustOverlap(0.5),
				P:       80,
				F:       0.7,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ts.Schedule(tt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngine measures ablation A4: executing a scheduled 6-join
// plan over real data, reporting the measured/predicted response ratio.
func BenchmarkEngine(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	p := query.MustRandom(r, query.GenConfig{Joins: 6, MinTuples: 5000, MaxTuples: 30000})
	ds, err := mdrs.GenerateData(p, 1)
	if err != nil {
		b.Fatal(err)
	}
	s, err := mdrs.ScheduleQuery(p, mdrs.Options{Sites: 12, Epsilon: 0.5, F: 0.7})
	if err != nil {
		b.Fatal(err)
	}
	eng := mdrs.Engine{Model: mdrs.DefaultCostModel(), Overlap: resource.MustOverlap(0.5)}
	var ratio float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := eng.Run(ds, s)
		if err != nil {
			b.Fatal(err)
		}
		ratio = rep.Measured / rep.Predicted
	}
	b.ReportMetric(ratio, "measured-vs-predicted")
}

func benchName(k1 string, v1 int, k2 string, v2 int) string {
	return fmt.Sprintf("%s=%d/%s=%d", k1, v1, k2, v2)
}
