package sched

import (
	"context"
	"fmt"
	"math/rand"

	"mdrs/internal/costmodel"
	"mdrs/internal/obs"
	"mdrs/internal/plan"
	"mdrs/internal/resource"
)

// ScheduleBatch schedules several independent queries as one workload:
// phase i of every query executes in global phase i, so operators of
// different queries time-share sites exactly like operators of
// independent tasks within one query. This extends the paper's
// resource-sharing argument across query boundaries — the batch
// makespan is typically well below the sum of the queries' individual
// response times, because one query's idle resources absorb another's
// load.
//
// Blocking constraints are preserved per query (each query's own phase
// order is kept); queries with fewer phases simply stop contributing to
// later global phases.
func (ts TreeScheduler) ScheduleBatch(trees []*plan.TaskTree) (*Schedule, error) {
	return ts.ScheduleBatchCtx(context.Background(), trees)
}

// ScheduleBatchCtx is ScheduleBatch with a cancellation context: the
// phase loop and the placement loop inside OperatorSchedule check ctx
// and return ctx.Err() promptly once the context is cancelled or past
// its deadline. The context never influences a scheduling decision — a
// run that completes is bit-identical to ScheduleBatch.
func (ts TreeScheduler) ScheduleBatchCtx(ctx context.Context, trees []*plan.TaskTree) (*Schedule, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if len(trees) == 0 {
		return nil, fmt.Errorf("sched: empty batch")
	}
	perTree := make([][][]*plan.Task, len(trees))
	maxPhases := 0
	for i, tt := range trees {
		if tt == nil {
			return nil, fmt.Errorf("sched: batch query %d: nil task tree", i)
		}
		if err := tt.Validate(); err != nil {
			return nil, fmt.Errorf("sched: batch query %d: %w", i, err)
		}
		perTree[i] = tt.PhasesBy(ts.Policy)
		if len(perTree[i]) > maxPhases {
			maxPhases = len(perTree[i])
		}
	}

	// Operator IDs are dense per tree; offset them so they stay unique
	// within one OperatorSchedule call.
	offsets := make([]int, len(trees))
	next := 0
	for i, tt := range trees {
		offsets[i] = next
		for _, tk := range tt.Tasks {
			next += len(tk.Ops)
		}
	}

	out := &Schedule{P: ts.P}
	// Build→probe homes are keyed per batch entry, not per *plan.Operator
	// alone: the same *plan.TaskTree (or one sharing operator pointers)
	// may legally appear at several batch positions, and a shared map
	// would let entry j's build overwrite entry i's home, silently rooting
	// entry i's probe at entry j's hash-table sites.
	homes := make([]map[*plan.Operator][]int, len(trees))
	for i := range homes {
		homes[i] = make(map[*plan.Operator][]int)
	}
	// One scratch serves every global phase (see ScheduleCtx).
	sc := new(scratch)
	w := ts.workers()
	ts.observeWorkers(w)
	for phaseIdx := 0; phaseIdx < maxPhases; phaseIdx++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// One preparation fan-out spans the global phase across every
		// tree of the batch — the widest parallel section available,
		// since each job carries its own entry's homes map. Jobs are
		// listed in (batch entry, task, operator) order and consumed in
		// that order, so the batch is byte-identical for every pool
		// width; the per-entry ID offset is applied after the pool joins.
		var tasks []*plan.Task
		jobs := sc.prepJobs(0)
		for i := range trees {
			if phaseIdx >= len(perTree[i]) {
				continue
			}
			for _, tk := range perTree[i][phaseIdx] {
				tasks = append(tasks, tk)
				for _, p := range tk.Ops {
					jobs = append(jobs, prepJob{p: p, homes: homes[i], tree: i})
				}
			}
		}
		sc.jobs = jobs
		preps := ts.prepareAll(jobs, w, sc)
		ops := make([]*Op, 0, len(jobs))
		placements := make(map[int]*OpPlacement, len(jobs))
		treeOf := make(map[int]int, len(jobs)) // offset operator ID -> batch entry
		for j, pr := range preps {
			if pr.err != nil {
				return nil, fmt.Errorf("sched: batch phase %d: %w", phaseIdx, pr.err)
			}
			op := pr.op
			op.ID += offsets[jobs[j].tree]
			ops = append(ops, op)
			placements[op.ID] = pr.pl
			treeOf[op.ID] = jobs[j].tree
		}
		if ts.Rec != nil {
			clones := 0
			for _, op := range ops {
				clones += len(op.Clones)
			}
			ts.Rec.Event(obs.Event{
				Type: obs.EvPhaseOpen, Phase: phaseIdx,
				Ops: len(ops), Clones: clones,
			})
		}
		res, err := operatorSchedule(ctx, ts.P, resource.Dims, ts.Overlap, ops, true, ts.Rec, phaseIdx, sc)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("sched: batch phase %d: %w", phaseIdx, err)
		}
		if ts.Rec != nil {
			ts.Rec.Event(obs.Event{
				Type: obs.EvPhaseClose, Phase: phaseIdx, Response: res.Response,
			})
		}
		ph := &PhaseSchedule{Index: phaseIdx, Tasks: tasks, Response: res.Response}
		for _, op := range ops {
			pl := placements[op.ID]
			pl.Sites = res.Sites[op.ID]
			homes[treeOf[op.ID]][pl.Op] = pl.Sites
			ph.Placements = append(ph.Placements, pl)
		}
		out.Phases = append(out.Phases, ph)
		out.Response += ph.Response
	}
	return out, nil
}

// RandomDeclustering fixes every base-relation scan of a task tree at a
// random home — the shared-nothing situation where relations are
// pre-partitioned across sites and the scheduler has no say in scan
// placement (rooted operators, constraint (B) of Section 5.3). The home
// size is the scan's CG_f degree, its sites a random subset.
//
// The returned map plugs into TreeScheduler.Homes.
func (ts TreeScheduler) RandomDeclustering(r *rand.Rand, tt *plan.TaskTree) (map[int][]int, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if err := tt.Validate(); err != nil {
		return nil, err
	}
	homes := make(map[int][]int)
	for _, tk := range tt.Tasks {
		for _, op := range tk.Ops {
			if op.Kind != costmodel.Scan {
				continue
			}
			cost := ts.Model.Cost(op.Spec)
			n := ts.Model.Degree(cost, ts.F, ts.P, ts.Overlap)
			perm := r.Perm(ts.P)
			homes[op.ID] = append([]int(nil), perm[:n]...)
		}
	}
	return homes, nil
}
