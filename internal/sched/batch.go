package sched

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"

	"mdrs/internal/costmodel"
	"mdrs/internal/plan"
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
	for i, tt := range trees {
		if tt == nil {
			return nil, fmt.Errorf("sched: batch query %d: nil task tree", i)
		}
		if err := tt.Validate(); err != nil {
			return nil, fmt.Errorf("sched: batch query %d: %w", i, err)
		}
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	recs := sc.records(len(trees))
	for i, tt := range trees {
		if _, err := ts.price(recs[i], tt); err != nil {
			return nil, fmt.Errorf("sched: batch query %d: %w", i, err)
		}
	}
	return ts.scheduleBatch(ctx, sc, recs)
}

// scheduleBatch is the one phase driver, run on the given scratch over
// trees priced by ts: global phase i is phase i of every tree that has
// one. TreeSchedule (Figure 4) is the batch of one.
func (ts TreeScheduler) scheduleBatch(ctx context.Context, sc *scratch, recs []*Priced) (*Schedule, error) {
	// Operator IDs are dense per tree; offset them so they stay unique
	// within one OperatorSchedule call.
	offsets := sc.batchOffsets(len(recs))
	maxPhases, next := 0, 0
	for i, pr := range recs {
		maxPhases = max(maxPhases, len(pr.phases))
		offsets[i] = next
		next += len(pr.ops)
	}

	sc.resetHomes(next)
	out := newSchedule(ts.P, maxPhases)
	for phaseIdx, ph := range out.Phases {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Yield at every phase boundary. A scheduling call is CPU-bound
		// and never blocks, and Go preempts a running goroutine only
		// after 10 ms, so while every processor runs one the garbage
		// collector's background mark worker gets none and its marking
		// falls on the calls' allocations as assists. Without the yield,
		// two clients scheduling cache misses on two cores saw a p99 of
		// 6.4 ms and a p999 of 30 ms, against 4.7 and 6 ms with it.
		runtime.Gosched()
		// One prepare pass spans the global phase across every tree of
		// the batch, in (batch entry, task, operator) order.
		feeders, n := 0, 0
		for _, pr := range recs {
			if phaseIdx < len(pr.phases) {
				feeders++
				n += len(pr.phases[phaseIdx])
			}
		}
		if feeders > 1 {
			ph.Tasks = make([]*plan.Task, 0, n)
		}
		jobs := sc.jobs[:0]
		for i, pr := range recs {
			if phaseIdx >= len(pr.phases) {
				continue
			}
			own := pr.phases[phaseIdx]
			if feeders == 1 {
				// A tree that alone feeds the phase lends its own list,
				// and its record must not lay out another tree there.
				ph.Tasks, pr.lent = own, true
			} else {
				ph.Tasks = append(ph.Tasks, own...)
			}
			for _, tk := range own {
				for _, p := range tk.Ops {
					jobs = append(jobs, prepJob{p: p, e: &pr.ops[p.ID], id: p.ID + offsets[i], base: offsets[i]})
				}
			}
		}
		sc.jobs = jobs
		if err := ts.runPhase(ctx, sc, ph); err != nil {
			return nil, err
		}
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
