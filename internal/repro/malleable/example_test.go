package malleable_test

import (
	"fmt"

	"mdrs/internal/costmodel"
	"mdrs/internal/repro/malleable"
	"mdrs/internal/resource"
)

// ExampleScheduler lets the Section 7 scheduler pick degrees of
// parallelism for two scans of very different sizes.
func ExampleScheduler() {
	m := costmodel.Default()
	ov, _ := resource.NewOverlap(0.5)
	s := malleable.Scheduler{Model: m, Overlap: ov, P: 8}
	ops := []malleable.Operator{
		{ID: 0, Cost: m.Cost(costmodel.OpSpec{Kind: costmodel.Scan, InTuples: 80000, NetOut: true})},
		{ID: 1, Cost: m.Cost(costmodel.OpSpec{Kind: costmodel.Scan, InTuples: 2000, NetOut: true})},
	}
	res, _ := s.Schedule(ops)
	fmt.Printf("degrees: %v\n", res.Parallelization)
	// Output:
	// degrees: [8 1]
}
