package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"mdrs/internal/resource"
	"mdrs/internal/vector"
)

// placementOps builds m floating operators with degrees 1..maxDeg and
// random 3-dimensional work vectors — the shape of a heavy concurrent
// phase at production system sizes.
func placementOps(seed int64, m, maxDeg int) []*Op {
	r := rand.New(rand.NewSource(seed))
	ops := make([]*Op, m)
	for i := range ops {
		n := 1 + r.Intn(maxDeg)
		clones := make([]vector.Vector, n)
		for k := range clones {
			clones[k] = vector.Of(r.Float64()*10, r.Float64()*10, r.Float64()*10)
		}
		ops[i] = &Op{ID: i, Clones: clones}
	}
	return ops
}

// BenchmarkOperatorSchedulePlacement isolates the Figure 3 placement
// loop (step 3) cost across system sizes. The P >= 100 cases are the
// ones the incremental site index must speed up.
func BenchmarkOperatorSchedulePlacement(b *testing.B) {
	o := resource.MustOverlap(0.5)
	for _, pc := range []struct{ p, m, deg int }{
		{16, 64, 4},
		{100, 200, 8},
		{100, 400, 8},
		{256, 512, 8},
		{512, 1024, 8},
	} {
		ops := placementOps(7, pc.m, pc.deg)
		b.Run(fmt.Sprintf("P=%d/M=%d", pc.p, pc.m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := OperatorSchedule(pc.p, 3, o, ops); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
