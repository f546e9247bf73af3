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
		ops[i] = &Op{ID: i, Work: runsOf(clones)}
	}
	return ops
}

// BenchmarkOperatorSchedulePlacement isolates Figure 3's steps 2 and 3
// across system sizes. The P=…/M=… cases draw every clone vector at
// random, so each run of L is one clone: they time the index per clone.
// The ea1/… cases are a 20-join plan's operators with the degrees and
// EA1 clones the tree scheduler derives at that P — runs of up to N−1
// equal clones, the shape the services place.
func BenchmarkOperatorSchedulePlacement(b *testing.B) {
	o := resource.MustOverlap(0.5)
	run := func(name string, p int, ops []*Op) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := OperatorSchedule(p, 3, o, ops); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, pc := range []struct{ p, m, deg int }{
		{16, 64, 4},
		{100, 200, 8},
		{100, 400, 8},
		{256, 512, 8},
		{512, 1024, 8},
	} {
		run(fmt.Sprintf("P=%d/M=%d", pc.p, pc.m), pc.p, placementOps(7, pc.m, pc.deg))
	}
	for _, p := range []int{128, 512} {
		run(fmt.Sprintf("ea1/P=%d", p), p, ea1Ops(7, 20, p))
	}
}
