// Deterministic intra-schedule parallelism for the Figure 3/Figure 4
// schedulers. One cost of a TreeSchedule run decomposes into independent
// work without touching the greedy placement order the Theorem 5.1 proof
// depends on: cost preparation. Every operator's work-vector
// construction (Cost, CG_f Degree, Clones, T^par) is a pure function of
// its spec and the already-fixed homes of previous phases, so the
// per-phase prepare pass fans across a bounded pool (par.For) with
// results written by operator index. In ScheduleBatch the pass spans all
// trees of a global phase at once. With a costmodel.Cache attached the
// workers share it; concurrent misses for one spec may compute the
// derivation twice, but both results are bit-identical, so whichever
// insert wins is indistinguishable.
//
// The pool never reorders anything observable: list order, tie-breaks,
// trace events, and error selection are all fixed by index before any
// goroutine runs. Site selection stays serial — each pick of the
// Figure 3 list depends on the previous placement (DESIGN.md §11).

package sched

import (
	"mdrs/internal/obs"
	"mdrs/internal/par"
	"mdrs/internal/plan"
)

// prepJob is one operator awaiting cost preparation: the plan operator,
// the batch entry it belongs to (0 outside a batch) and the ID it is
// scheduled under, unique within the phase.
type prepJob struct {
	p    *plan.Operator
	tree int
	id   int
}

// prepareAll runs ts.prepare over the scratch's jobs across at most w
// workers, filling the scratch's operator slab and pls by job index, and
// returns the first job's error in job order. Each worker writes only
// its own index and only reads the homes of earlier phases, so the
// outcome — including which job's error is reported — is identical for
// every pool width.
func (ts TreeScheduler) prepareAll(sc *scratch, pls []OpPlacement, w int) error {
	jobs := sc.jobs
	sc.phaseSlabs(len(jobs))
	par.For(w, len(jobs), func(i int) {
		sc.errs[i] = ts.prepare(jobs[i], sc.homes, &sc.ops[i], &pls[i])
	})
	if ts.Rec != nil {
		name := "sched.par.prepare_ops_serial"
		if w > 1 && len(jobs) > 1 {
			name = "sched.par.prepare_ops_parallel"
		}
		ts.Rec.Count(name, int64(len(jobs)))
	}
	for _, err := range sc.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Re-export the knob resolution so the tree/batch schedulers and the
// facade agree on what Workers=0 means.
func (ts TreeScheduler) workers() int { return par.Workers(ts.Workers) }

// observeWorkers records the effective pool width of one scheduling
// call, for capacity planning via /metricz.
func (ts TreeScheduler) observeWorkers(w int) {
	obs.Observe(ts.Rec, "sched.par.workers", float64(w))
}
