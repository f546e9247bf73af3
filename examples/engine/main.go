// Engine executes a scheduled bushy plan for real: it generates
// FK-disciplined synthetic relations, runs partitioned scans, hash
// builds, and pipelined probes on goroutine-per-clone workers, meters
// every clone's CPU/disk/network usage with the Table 2 cost constants,
// and compares the measured response time against the scheduler's
// analytic prediction and the fluid time-sharing simulation.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"mdrs"
	"mdrs/internal/repro/sim"
)

func main() {
	r := rand.New(rand.NewSource(7))
	plan := mdrs.MustRandomPlan(r, mdrs.GenConfig{
		Joins: 8, MinTuples: 10_000, MaxTuples: 80_000,
	})
	opts := mdrs.Options{Sites: 24, Epsilon: 0.5, F: 0.7}

	schedule, err := mdrs.ScheduleQuery(plan, opts)
	if err != nil {
		log.Fatal(err)
	}

	ds, err := mdrs.GenerateData(plan, 42)
	if err != nil {
		log.Fatal(err)
	}

	ov, err := mdrs.NewOverlap(opts.Epsilon)
	if err != nil {
		log.Fatal(err)
	}
	eng := mdrs.Engine{Model: mdrs.DefaultCostModel(), Overlap: ov}
	report, err := eng.Run(ds, schedule)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("executed %d-join plan over %d base relations on %d sites\n",
		plan.Joins(), ds.NumLeaves(), opts.Sites)
	fmt.Printf("result cardinality: %d tuples (optimizer predicted %d)\n\n",
		report.ResultTuples, plan.Tuples)

	fmt.Println("join result cardinalities (joinID -> tuples):")
	for j := 0; j < plan.Joins(); j++ {
		fmt.Printf("  J%-3d %8d\n", j, report.JoinResults[j])
	}

	fmt.Printf("\nscheduler-predicted response: %8.3f s\n", report.Predicted)
	fmt.Printf("engine-measured response:     %8.3f s  (%.1f%% deviation)\n",
		report.Measured, 100*(report.Measured-report.Predicted)/report.Predicted)

	cmp, err := sim.SimulateSchedule(ov, schedule)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fluid-simulated response:     %8.3f s  (%.3fx the analytic model)\n",
		cmp.Simulated, cmp.Ratio())

	fmt.Println("\nper-phase measured response:")
	for i, t := range report.PhaseMeasured {
		fmt.Printf("  phase %d: %8.3f s\n", i, t)
	}
}
