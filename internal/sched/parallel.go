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
// the homes map of its tree (fixed for the duration of the phase — the
// workers only read it), and the batch entry it belongs to.
type prepJob struct {
	p     *plan.Operator
	homes map[*plan.Operator][]int
	tree  int
}

// prepOut is the result of preparing one job, index-aligned with the
// job list.
type prepOut struct {
	op  *Op
	pl  *OpPlacement
	err error
}

// prepareAll runs ts.prepare over every job across at most w workers and
// returns the results in job order. Each worker writes only its own
// index, and callers consume the slice serially, so the outcome —
// including which job's error is reported first — is identical for every
// pool width. The output slice comes from the scratch and is only valid
// until the next prepareAll call on the same scratch.
func (ts TreeScheduler) prepareAll(jobs []prepJob, w int, sc *scratch) []prepOut {
	out := sc.prepOuts(len(jobs))
	par.For(w, len(jobs), func(i int) {
		out[i].op, out[i].pl, out[i].err = ts.prepare(jobs[i].p, jobs[i].homes)
	})
	if ts.Rec != nil {
		name := "sched.par.prepare_ops_serial"
		if w > 1 && len(jobs) > 1 {
			name = "sched.par.prepare_ops_parallel"
		}
		ts.Rec.Count(name, int64(len(jobs)))
	}
	return out
}

// Re-export the knob resolution so the tree/batch schedulers and the
// facade agree on what Workers=0 means.
func (ts TreeScheduler) workers() int { return par.Workers(ts.Workers) }

// observeWorkers records the effective pool width of one scheduling
// call, for capacity planning via /metricz.
func (ts TreeScheduler) observeWorkers(w int) {
	obs.Observe(ts.Rec, "sched.par.workers", float64(w))
}
