// Package mdrs is a from-scratch reproduction of
//
//	Minos N. Garofalakis and Yannis E. Ioannidis,
//	"Multi-dimensional Resource Scheduling for Parallel Queries",
//	Proceedings of ACM SIGMOD 1996.
//
// The paper schedules bushy hash-join query plans on shared-nothing
// parallel database systems whose sites each bundle d preemptable
// resources (CPU, disk, network interface). Operator costs are
// d-dimensional work vectors; concurrent operators time-share sites, and
// the response time of a site follows Equation 2 of the paper:
//
//	T^site(s) = max{ max_{W∈work(s)} T^seq(W), l(work(s)) }.
//
// Scheduling a phase of concurrent operators is an instance of the
// d-dimensional bin-design problem. The package provides:
//
//   - TreeScheduler — the paper's contribution: coarse-grain (CG_f)
//     parallelization of floating operators (Proposition 4.1), the
//     OperatorSchedule multi-dimensional list-scheduling rule (Figure 3,
//     provably within 2d+1 of optimal for fixed parallelizations), and
//     phased execution of bushy plans with build→probe data-placement
//     constraints (Figure 4);
//   - OptBound — the OPTBOUND lower bound of Section 6.2;
//   - an analytic cost model instantiated with the paper's Table 2
//     parameters, a random bushy-plan workload generator, and an
//     in-memory parallel hash-join engine that executes schedules over
//     synthetic data while metering every clone's resource usage.
//
// This package is the system: what the scheduling service and its
// commands link. The code that exists only to reproduce the paper's
// evaluation lives under internal/repro, is not re-exported, and is
// imported only by mdrs-bench, the examples and its own tests:
// internal/repro/baseline (the one-dimensional SYNCHRONOUS adversary:
// Hsiao et al.'s synchronous execution time combined with Lo et al.'s
// minimax pipeline allocation), internal/repro/malleable (the Section 7
// scheduler that picks degrees of parallelism itself, within 2d+1 of
// the optimum over all parallel schedules, Theorem 7.1),
// internal/repro/sim (the fluid simulator validating the analytic
// sharing model), internal/repro/memsched, internal/repro/contention
// and internal/repro/pipesim (the open-problem extensions) and
// internal/repro/experiments (the figure harness).
//
// The quickest route from a query to a schedule:
//
//	plan := mdrs.MustRandomPlan(rand.New(rand.NewSource(1)), mdrs.DefaultGenConfig(10))
//	s, err := mdrs.ScheduleQuery(plan, mdrs.Options{Sites: 32, Epsilon: 0.5, F: 0.7})
//
// The experiments of the paper's Section 6 are regenerated by the
// mdrs-bench command and the benchmarks of internal/repro/experiments;
// DESIGN.md maps every figure to the modules that implement it and
// EXPERIMENTS.md records paper-versus-measured outcomes.
package mdrs
