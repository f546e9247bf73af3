// Malleable demonstrates the Section 7 extension: scheduling a batch of
// independent operators where the scheduler itself chooses each degree
// of partitioned parallelism. It prints the greedy GF candidate family,
// the lower bound of each candidate, the selected parallelization, and
// a head-to-head against the coarse-grain (CG_f) rule.
package main

import (
	"fmt"
	"log"

	"mdrs"
	"mdrs/internal/repro/malleable"
)

func main() {
	model := mdrs.DefaultCostModel()
	ov, err := mdrs.NewOverlap(0.5)
	if err != nil {
		log.Fatal(err)
	}
	s := malleable.Scheduler{Model: model, Overlap: ov, P: 12}

	// A batch of independent scans and probes with very different sizes:
	// exactly the situation where one-size-fits-all parallelization
	// wastes startup cost on small operators and starves big ones.
	specs := []mdrs.OpSpec{
		{Kind: mdrs.Scan, InTuples: 100_000, NetOut: true},
		{Kind: mdrs.Scan, InTuples: 40_000, NetOut: true},
		{Kind: mdrs.Scan, InTuples: 5_000, NetOut: true},
		{Kind: mdrs.Probe, InTuples: 80_000, ResultTuples: 80_000, NetIn: true, NetOut: true},
		{Kind: mdrs.Build, InTuples: 30_000, NetIn: true},
		{Kind: mdrs.Scan, InTuples: 1_000, NetOut: true},
	}
	ops := make([]malleable.Operator, len(specs))
	for i, spec := range specs {
		ops[i] = malleable.Operator{ID: i, Cost: model.Cost(spec)}
	}

	fmt.Println("operators (W_p = processing area, D = interconnect bytes):")
	for i, op := range ops {
		fmt.Printf("  op%-2d %-6v W_p=%7.2f s  D=%8.0f B\n",
			i, specs[i].Kind, op.Cost.ProcessingArea(), op.Cost.D)
	}

	family, err := s.Candidates(ops)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGF family: %d candidate parallelizations (bound: 1 + M(P-1) = %d)\n",
		len(family), 1+len(ops)*(s.P-1))
	step := len(family) / 5
	if step == 0 {
		step = 1
	}
	for k := 0; k < len(family); k += step {
		fmt.Printf("  N^%-3d = %v   LB = %.3f s\n", k+1, family[k], s.LB(ops, family[k]))
	}

	res, err := s.Schedule(ops)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nselected N = %v\n", res.Parallelization)
	fmt.Printf("lower bound LB(N)      = %8.3f s\n", res.LB)
	fmt.Printf("malleable response     = %8.3f s  (guaranteed <= (2d+1)·OPT)\n",
		res.Schedule.Response)

	cg := s.CoarseGrainParallelization(ops, 0.7)
	cgRes, err := s.ScheduleFixed(ops, cg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CG_f (f=0.7) N = %v\n", cg)
	fmt.Printf("coarse-grain response  = %8.3f s\n", cgRes.Schedule.Response)
}
