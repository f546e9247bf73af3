package sched

import (
	"context"
	"fmt"
	"math"
	"sync"

	"mdrs/internal/costmodel"
	"mdrs/internal/obs"
	"mdrs/internal/plan"
	"mdrs/internal/resource"
)

// TreeScheduler configures TreeSchedule (Figure 4): a system of P
// d-dimensional sites with overlap model Overlap, a cost model, and the
// granularity parameter f that bounds partitioned parallelism through
// Proposition 4.1.
type TreeScheduler struct {
	Model   costmodel.Model
	Overlap resource.Overlap
	// P is the number of system sites.
	P int
	// F is the coarse-granularity parameter f of Definition 4.1.
	F float64
	// Homes optionally roots operators (by operator ID) at fixed sites,
	// expressing data placement constraints such as pre-declustered base
	// relations. Probes are always rooted at their build's home
	// regardless of this map.
	Homes map[int][]int
	// MaxDegree, when positive, caps every floating operator's degree of
	// partitioned parallelism at min{N_max, N_opt, P, MaxDegree} —
	// the per-query intra-operator parallelism lever the serve layer's
	// adaptive controller turns under concurrency. Zero means uncapped
	// (the paper's pure CG_f degree). MaxDegree changes the schedule
	// itself, so it participates in Fingerprint: two caps never share a
	// cached schedule. Rooted operators (Homes, and probes pinned to
	// their build's sites) keep their fixed homes regardless.
	MaxDegree int
	// Policy selects the phase-packing policy; the zero value is the
	// paper's MinShelf.
	Policy plan.PhasePolicy
	// Rec, when non-nil, receives the decision trace (every placement,
	// phase boundary, and ban-set hit) plus aggregate counters and
	// timers. It never influences a scheduling decision; nil disables
	// all recording at near-zero cost.
	Rec obs.Recorder
	// Cache, when non-nil, memoizes the cost model's derivations (cost
	// vectors and OPTBOUND terms) across operators, phases, trees, and
	// batch entries, so structurally repeated specs are costed once. It
	// must wrap the same Model (Cache.Model() == Model); every cached
	// answer is bit-identical to an uncached one, pinned by the identity
	// tests. Safe to share across concurrent scheduling calls.
	Cache *costmodel.Cache
	// Workers has no effect: a scheduling call runs on its caller's
	// goroutine. Fingerprint excludes it.
	//
	// Deprecated: ignored; kept only because the frozen bench/probe.go
	// assigns it (ROADMAP 1a).
	Workers int
}

// Validate reports the first nonsensical configuration field.
func (ts TreeScheduler) Validate() error {
	if err := ts.Model.Params.Validate(); err != nil {
		return err
	}
	if err := ts.Overlap.Validate(); err != nil {
		return err
	}
	if ts.P <= 0 {
		return fmt.Errorf("sched: non-positive site count %d", ts.P)
	}
	if !(ts.F >= 0) || math.IsInf(ts.F, 1) {
		return fmt.Errorf("sched: granularity parameter f = %g, want finite and non-negative", ts.F)
	}
	if ts.MaxDegree < 0 {
		return fmt.Errorf("sched: negative parallelism cap MaxDegree = %d", ts.MaxDegree)
	}
	return nil
}

// OpPlacement records the scheduling decision for one plan operator.
type OpPlacement struct {
	// Op is the scheduled plan operator.
	Op *plan.Operator
	// Degree is the degree of partitioned parallelism N_i.
	Degree int
	// Sites holds the site of each clone; Sites[0] is the coordinator.
	Sites []int
	// Work holds the clone work vectors as runs in clone order, aligned
	// with Sites: the first Work[0].N clones do Work[0].W, and so on.
	// TreeSchedule writes the coordinator's run and the others'.
	Work []WorkRun
	// Rooted marks operators whose home was fixed before list scheduling.
	Rooted bool
	// TPar is T^par(op, N): the operator's isolated parallel execution
	// time (Equation 1).
	TPar float64
}

// PhaseSchedule is the schedule of one synchronized phase.
type PhaseSchedule struct {
	// Index is the phase's execution position, starting at 0.
	Index int
	// Tasks lists the independent tasks executed in the phase.
	Tasks []*plan.Task
	// Placements lists one entry per operator, in operator-ID order.
	Placements []*OpPlacement
	// Response is the phase's parallel execution time per Equation 3.
	Response float64
}

// Schedule is a complete parallel schedule for a bushy plan: the
// synchronized phases and the end-to-end response time (the sum of the
// phase responses, since phases execute back to back).
//
// A completed Schedule is immutable by convention: the engine, the
// simulators, the renderers, and the serving layer only read it, which
// is what lets the serve-layer schedule cache hand one *Schedule to
// many concurrent requests. Callers must not modify a schedule they
// did not build themselves.
type Schedule struct {
	// Phases in execution order.
	Phases []*PhaseSchedule
	// Response is the total plan response time.
	Response float64
	// P is the system size the schedule was produced for.
	P int

	// jsonOnce lazily fills jsonData/jsonErr the first time JSON is
	// called (render.go); a schedule that is never rendered, or only
	// through EncodeJSON, holds no bytes.
	jsonOnce sync.Once
	jsonData []byte
	jsonErr  error
}

// Schedule runs TreeSchedule on a task tree: split the plan into
// synchronized phases (already encoded in the tree, Section 5.4), then
// schedule each phase's operators with OperatorSchedule, carrying the
// build→probe home constraint across phases (Section 5.5). A query
// alone is the batch of one: the loop is ScheduleBatch's (batch.go).
func (ts TreeScheduler) Schedule(tt *plan.TaskTree) (*Schedule, error) {
	return ts.ScheduleCtx(context.Background(), tt)
}

// ScheduleCtx is Schedule with a cancellation context: the phase loop
// and the placement loop inside OperatorSchedule check ctx and return
// ctx.Err() promptly once the context is cancelled or past its
// deadline, instead of finishing a schedule nobody is waiting for. The
// context never influences a scheduling decision — a run that completes
// is bit-identical to Schedule.
func (ts TreeScheduler) ScheduleCtx(ctx context.Context, tt *plan.TaskTree) (*Schedule, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	recs := sc.records(1)
	if _, err := ts.Price(recs[0], tt); err != nil {
		return nil, err
	}
	return ts.scheduleBatch(ctx, sc, recs)
}

// newSchedule returns a schedule for p sites whose n phases, indexed and
// otherwise empty, are one slab.
func newSchedule(p, n int) *Schedule {
	out := &Schedule{P: p, Phases: make([]*PhaseSchedule, n)}
	slab := make([]PhaseSchedule, n)
	for i := range slab {
		slab[i].Index = i
		out.Phases[i] = &slab[i]
	}
	return out
}

// runPhase schedules the operators listed in sc.jobs as phase ph.Index
// and fills in ph's placements and response. The jobs are in the order
// the placements are listed in. Each job's placement is built from its
// priced entry, OperatorSchedule writes every clone's site into one slab
// that the placements' Sites are windows of, and the homes of the
// phase's operators are recorded for the probes of later phases. What
// the phase leaves behind is three allocations: the placements and
// their work, pointers, and sites.
func (ts TreeScheduler) runPhase(ctx context.Context, sc *scratch, ph *PhaseSchedule) error {
	jobs := sc.jobs
	slots := make([]placementSlot, len(jobs))
	sc.phaseSlabs(len(jobs))
	clones := 0
	for i, j := range jobs {
		ts.prepare(sc, j, &sc.ops[i], &slots[i])
		clones += j.e.deg
	}
	slab := make([]int, clones)
	for i := range slots {
		n := slots[i].pl.Degree
		slots[i].pl.Sites, slab = slab[:n:n], slab[n:]
		sc.dst[i] = slots[i].pl.Sites
	}

	if ts.Rec != nil {
		ts.Rec.Event(obs.Event{
			Type: obs.EvPhaseOpen, Phase: ph.Index,
			Ops: len(jobs), Clones: clones,
		})
	}
	stop := obs.StartTimer(ts.Rec, "sched.phase_seconds")
	resp, err := sc.operatorSchedule(ctx, ts.P, resource.Dims, ts.Overlap, sc.opPtrs, sc.dst, true, ts.Rec, ph.Index)
	stop()
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("sched: phase %d: %w", ph.Index, err)
	}
	if ts.Rec != nil {
		ts.Rec.Count("sched.phases", 1)
		ts.Rec.Event(obs.Event{
			Type: obs.EvPhaseClose, Phase: ph.Index, Response: resp,
		})
	}

	ph.Response = resp
	ph.Placements = make([]*OpPlacement, len(slots))
	for i := range slots {
		ph.Placements[i] = &slots[i].pl
		sc.homes[jobs[i].id] = slots[i].pl.Sites
	}
	return nil
}

// placementSlot is a placement and the runs and vectors of its Work.
type placementSlot struct {
	pl    OpPlacement
	runs  [2]WorkRun
	split costmodel.CloneWork
}

// prepJob is one operator awaiting placement: the plan operator, its
// priced entry, the ID it is scheduled under, unique within the phase,
// and the offset of its batch entry's IDs (0 outside a batch).
type prepJob struct {
	p    *plan.Operator
	e    *pricedOp
	id   int
	base int
}

// prepare writes a priced operator's Op and placement (whose Sites are
// the placement loop's to fill). The work is the EA1 split of the priced
// cost at the priced degree, as at most two runs. A probe executes at
// the sites holding the hash table: the home of its build, with the same
// clone layout (coordinator aligned), which pricing put in an earlier
// phase than the probe's.
func (ts TreeScheduler) prepare(sc *scratch, j prepJob, op *Op, slot *placementSlot) {
	home := j.e.home
	if b := j.p.BuildOp; b != nil {
		home = sc.homes[j.base+b.ID]
	}
	slot.split = ts.Model.Split(j.e.cost, j.e.deg)
	work := splitRuns(&slot.runs, &slot.split)
	*op = Op{ID: j.id, Work: work, Home: home}
	slot.pl = OpPlacement{
		Op:     j.p,
		Degree: j.e.deg,
		Work:   work,
		Rooted: home != nil,
		TPar:   j.e.tpar,
	}
}
