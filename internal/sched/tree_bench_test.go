package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"mdrs/internal/costmodel"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
)

// BenchmarkTreeSchedule measures full TreeSchedule runs over a pool of
// seeded plans, cold (every call re-derives all costs) versus warm (a
// shared cost-model memo): the cached variant's allocs/op drop is the
// cost-memoization win, on top of the scratch reuse both variants get.
func BenchmarkTreeSchedule(b *testing.B) {
	for _, joins := range []int{6, 12} {
		r := rand.New(rand.NewSource(int64(joins)))
		trees := make([]*plan.TaskTree, 8)
		for i := range trees {
			p := query.MustRandom(r, query.DefaultGenConfig(joins))
			trees[i] = plan.MustNewTaskTree(plan.MustExpand(p))
		}
		ts := TreeScheduler{
			Model:   costmodel.Default(),
			Overlap: resource.MustOverlap(0.5),
			P:       32,
			F:       0.7,
		}
		run := func(b *testing.B, ts TreeScheduler) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ts.Schedule(trees[i%len(trees)]); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(fmt.Sprintf("joins=%d/cold", joins), func(b *testing.B) {
			run(b, ts)
		})
		b.Run(fmt.Sprintf("joins=%d/warm", joins), func(b *testing.B) {
			warm := ts
			warm.Cache = costmodel.NewCache(ts.Model)
			run(b, warm)
		})
	}
}

// BenchmarkScheduleBatchMiss is the placement layer's share of the
// harness's schedule_miss workload: groups of one over plans of 10 to
// 30 joins at P = 128 with the cost-model memo warm, the call the serve
// layer makes for every schedule its cache does not hold.
func BenchmarkScheduleBatchMiss(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	trees := make([]*plan.TaskTree, 64)
	for i := range trees {
		p := query.MustRandom(r, query.DefaultGenConfig(10+i%21))
		trees[i] = plan.MustNewTaskTree(plan.MustExpand(p))
	}
	ts := TreeScheduler{
		Model:   costmodel.Default(),
		Overlap: resource.MustOverlap(0.5),
		P:       128,
		F:       0.7,
	}
	ts.Cache = costmodel.NewCache(ts.Model)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(trees)
		if _, err := ts.ScheduleBatch(trees[k : k+1]); err != nil {
			b.Fatal(err)
		}
	}
}
