// Bushyjoin reproduces the paper's headline comparison on a large
// workload: 40-join random bushy plans scheduled by the
// multi-dimensional TreeSchedule versus the one-dimensional SYNCHRONOUS
// baseline, across system sizes, with the OPTBOUND lower bound as the
// yardstick (Figures 5 and 6 of the paper in miniature).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"mdrs"
	"mdrs/internal/repro/baseline"
)

func main() {
	const (
		joins   = 40
		queries = 10
		eps     = 0.5
		f       = 0.7
	)
	ov, err := mdrs.NewOverlap(eps)
	if err != nil {
		log.Fatal(err)
	}
	r := rand.New(rand.NewSource(1996))
	plans := make([]*mdrs.PlanNode, queries)
	for i := range plans {
		plans[i] = mdrs.MustRandomPlan(r, mdrs.DefaultGenConfig(joins))
	}

	fmt.Printf("%d random %d-join bushy plans, ε=%.1f, f=%.1f\n\n", queries, joins, eps, f)
	fmt.Printf("%6s  %14s  %14s  %14s  %9s  %9s\n",
		"sites", "TreeSchedule", "Synchronous", "OPTBOUND", "speedup", "vs bound")

	for _, sites := range []int{10, 20, 40, 80, 140} {
		opts := mdrs.Options{Sites: sites, Epsilon: eps, F: f}
		sb := baseline.Synchronous{Model: mdrs.DefaultCostModel(), Overlap: ov, P: sites}
		var sumTree, sumSync, sumBound float64
		for _, p := range plans {
			tree, err := mdrs.ScheduleQuery(p, opts)
			if err != nil {
				log.Fatal(err)
			}
			_, tt, err := mdrs.PrepareQuery(p)
			if err != nil {
				log.Fatal(err)
			}
			sync, err := sb.Schedule(tt)
			if err != nil {
				log.Fatal(err)
			}
			bound, err := mdrs.OptBound(p, opts)
			if err != nil {
				log.Fatal(err)
			}
			sumTree += tree.Response
			sumSync += sync.Response
			sumBound += bound
		}
		q := float64(queries)
		fmt.Printf("%6d  %12.2f s  %12.2f s  %12.2f s  %8.2fx  %8.2fx\n",
			sites, sumTree/q, sumSync/q, sumBound/q,
			sumSync/sumTree, sumTree/sumBound)
	}

	fmt.Println("\nspeedup = Synchronous/TreeSchedule; vs bound = TreeSchedule/OPTBOUND")
	fmt.Println("(the worst-case guarantee per phase is 2d+1 = 7; observed ratios sit near 1)")
}
