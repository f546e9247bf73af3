// Operations stress-tests a schedule against the two idealizations the
// paper's conclusions flag as open problems: unlimited memory
// (assumption A1) and free time-sharing (assumption A2). It schedules
// one workload three ways —
//
//  1. the base TreeSchedule under the paper's assumptions,
//  2. the memory-aware scheduler as per-site memory shrinks (hash
//     tables spill when they do not fit), and
//  3. the base schedule re-priced under a disk time-sharing penalty
//     (interleaved streams cost seeks),
//
// — quantifying how far each idealization is from an operationally
// honest estimate.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"mdrs"
	"mdrs/internal/repro/contention"
	"mdrs/internal/repro/memsched"
	"mdrs/internal/repro/pipesim"
)

func main() {
	r := rand.New(rand.NewSource(11))
	plan := mdrs.MustRandomPlan(r, mdrs.DefaultGenConfig(15))
	_, tt, err := mdrs.PrepareQuery(plan)
	if err != nil {
		log.Fatal(err)
	}
	ov, err := mdrs.NewOverlap(0.5)
	if err != nil {
		log.Fatal(err)
	}
	const sites, f = 24, 0.7

	base, err := mdrs.TreeScheduler{
		Model: mdrs.DefaultCostModel(), Overlap: ov, P: sites, F: f,
	}.Schedule(tt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("15-join plan on %d sites; base TreeSchedule: %.2f s\n\n", sites, base.Response)

	fmt.Println("memory (A1): per-site capacity vs response and spill volume")
	for _, mb := range []float64{1, 4, 16, 64, math.Inf(1)} {
		ms := memsched.Scheduler{
			Model: mdrs.DefaultCostModel(), Overlap: ov, P: sites, F: f,
			MemoryBytes: mb * (1 << 20),
		}
		if math.IsInf(mb, 1) {
			ms.MemoryBytes = math.Inf(1)
		}
		res, err := ms.Schedule(tt)
		if err != nil {
			log.Fatal(err)
		}
		label := fmt.Sprintf("%6.0f MB", mb)
		if math.IsInf(mb, 1) {
			label = "  ∞ (A1)"
		}
		fmt.Printf("  %s: %8.2f s   spilled %6.1f MB\n",
			label, res.Response, res.TotalSpilledBytes/(1<<20))
	}

	// This workload is CPU-bound under Table 2 (the schedule keeps CPUs
	// ~95% busy while disks idle around 30%), so moderate disk-sharing
	// penalties are absorbed by the slack — Equation 2's max structure
	// hides them until the inflated disk load overtakes the CPU load.
	st := mdrs.ScheduleStats(base)
	fmt.Printf("\ntime-sharing (A2): disk penalty γ vs re-priced response\n")
	fmt.Printf("  (utilization cpu %.0f%%, disk %.0f%%, net %.0f%% — disk slack absorbs small γ)\n",
		100*st.Utilization[mdrs.CPU], 100*st.Utilization[mdrs.Disk], 100*st.Utilization[mdrs.Net])
	for _, gamma := range []float64{0, 0.5, 1, 2, 5, 10} {
		priced, err := contention.EvalSchedule(ov, contention.DiskOnly(mdrs.Dims, gamma), base)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  γ_disk = %5.2f: %8.2f s  (+%.1f%%)\n",
			gamma, priced, 100*(priced/base.Response-1))
	}

	fmt.Println("\npipelining (A3/A5): explicit dataflow simulation")
	sim, err := pipesim.Simulate(ov, base, pipesim.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  analytic %.2f s, dataflow-simulated %.2f s (%.1f%% abstraction error)\n",
		sim.Analytic, sim.Simulated, 100*(sim.Ratio()-1))
}
