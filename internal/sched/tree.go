package sched

import (
	"context"
	"fmt"
	"sync"

	"mdrs/internal/costmodel"
	"mdrs/internal/obs"
	"mdrs/internal/plan"
	"mdrs/internal/resource"
	"mdrs/internal/vector"
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
	// vectors, CG_f degrees, clone vectors) across operators, phases,
	// trees, and batch entries, so structurally repeated specs are
	// costed once. It must wrap the same Model (Cache.Model() ==
	// Model); every cached answer is bit-identical to an uncached one,
	// pinned by the identity tests. Safe to share across concurrent
	// scheduling calls.
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
	if ts.P <= 0 {
		return fmt.Errorf("sched: non-positive site count %d", ts.P)
	}
	if ts.F < 0 {
		return fmt.Errorf("sched: negative granularity parameter f = %g", ts.F)
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
	// Clones holds the clone work vectors, aligned with Sites.
	Clones []vector.Vector
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

	// placeOnce lazily builds placeIdx the first time Placement is
	// called; a schedule that is only encoded or executed phase by
	// phase never pays for the index.
	placeOnce sync.Once
	placeIdx  map[*plan.Operator]*OpPlacement

	// jsonOnce lazily fills jsonData/jsonErr the first time JSON is
	// called (render.go); a schedule that is never rendered, or only
	// through EncodeJSON, holds no bytes.
	jsonOnce sync.Once
	jsonData []byte
	jsonErr  error
}

// Placement returns the placement of the given operator, or nil. The
// first call builds a per-operator index (previously every lookup
// linearly scanned all phases); the index is built under a sync.Once,
// so Placement is safe for concurrent use on a shared schedule.
func (s *Schedule) Placement(op *plan.Operator) *OpPlacement {
	s.placeOnce.Do(func() {
		n := 0
		for _, ph := range s.Phases {
			n += len(ph.Placements)
		}
		s.placeIdx = make(map[*plan.Operator]*OpPlacement, n)
		for _, ph := range s.Phases {
			for _, pl := range ph.Placements {
				if _, ok := s.placeIdx[pl.Op]; !ok {
					s.placeIdx[pl.Op] = pl
				}
			}
		}
	})
	return s.placeIdx[op]
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
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if err := tt.Validate(); err != nil {
		return nil, err
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return ts.scheduleBatch(ctx, sc, []*plan.TaskTree{tt})
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
// the placements are listed in. Cost preparation fills slabs indexed by
// job and returns the first error in job order, OperatorSchedule writes
// every clone's site into one slab that the placements' Sites are
// windows of, and the homes of the phase's operators are recorded for
// the probes of later phases. What the phase leaves behind is three
// allocations: the placements, the pointers to them and the sites.
func (ts TreeScheduler) runPhase(ctx context.Context, sc *scratch, ph *PhaseSchedule) error {
	jobs := sc.jobs
	pls := make([]OpPlacement, len(jobs))
	sc.phaseSlabs(len(jobs))
	for i, j := range jobs {
		if err := ts.prepare(j, sc.homes, &sc.ops[i], &pls[i]); err != nil {
			return fmt.Errorf("sched: phase %d: %w", ph.Index, err)
		}
	}
	clones := 0
	for i := range pls {
		clones += pls[i].Degree
	}
	slab := make([]int, clones)
	for i := range pls {
		n := pls[i].Degree
		pls[i].Sites, slab = slab[:n:n], slab[n:]
		sc.dst[i] = pls[i].Sites
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
	ph.Placements = make([]*OpPlacement, len(pls))
	for i := range pls {
		ph.Placements[i] = &pls[i]
		sc.homes[homeKey{jobs[i].tree, jobs[i].p}] = pls[i].Sites
	}
	return nil
}

// prepJob is one operator awaiting cost preparation: the plan operator,
// the batch entry it belongs to (0 outside a batch) and the ID it is
// scheduled under, unique within the phase.
type prepJob struct {
	p    *plan.Operator
	tree int
	id   int
}

// prepare determines an operator's degree of parallelism and clone
// vectors, and whether it is rooted, and writes them to op and pl (pl's
// Sites are the placement loop's to fill). With a Cache attached, every
// derivation is memoized by the operator's spec, so structurally
// repeated scans/builds/probes across phases, trees, and batch entries
// are costed once.
func (ts TreeScheduler) prepare(j prepJob, homes map[homeKey][]int, op *Op, pl *OpPlacement) error {
	p := j.p
	var home []int
	switch {
	case p.BuildOp != nil:
		// A probe executes at the sites holding the hash table: the home
		// of its build, with the same clone layout (coordinator aligned).
		h, ok := homes[homeKey{j.tree, p.BuildOp}]
		if !ok {
			return fmt.Errorf("operator %q scheduled before its build %q",
				p.Name, p.BuildOp.Name)
		}
		home = h
	case ts.Homes[p.ID] != nil:
		home = ts.Homes[p.ID]
	}

	var n int
	if home != nil {
		n = len(home)
	} else {
		n = ts.degree(p.Spec)
		if p.Kind == costmodel.Build && p.Consumer != nil {
			// The probe of this join is forced to run at the build's
			// home (Section 5.5), so the join's degree must be coarse
			// grain for the probe as well: cap the build's parallelism
			// by the probe's own CG_f degree. Otherwise the granularity
			// condition could never constrain probes at all.
			if pn := ts.degree(p.Consumer.Spec); pn < n {
				n = pn
			}
		}
	}

	var clones []vector.Vector
	var tpar float64
	if ts.Cache != nil {
		clones = ts.Cache.Clones(p.Spec, n)
		tpar = ts.Cache.TPar(p.Spec, n, ts.Overlap)
	} else {
		cost := ts.Model.Cost(p.Spec)
		clones = ts.Model.Clones(cost, n)
		tpar = ts.Model.TPar(cost, n, ts.Overlap)
	}

	*op = Op{ID: j.id, Clones: clones, Home: home}
	*pl = OpPlacement{
		Op:     p,
		Degree: n,
		Clones: clones,
		Rooted: home != nil,
		TPar:   tpar,
	}
	return nil
}

// degree resolves a floating operator's degree of parallelism through
// the cache when one is attached, clamped by MaxDegree when set.
func (ts TreeScheduler) degree(spec costmodel.OpSpec) int {
	if ts.Cache != nil {
		return ts.Cache.DegreeCapped(spec, ts.F, ts.P, ts.Overlap, ts.MaxDegree)
	}
	return ts.Model.DegreeCapped(ts.Model.Cost(spec), ts.F, ts.P, ts.Overlap, ts.MaxDegree)
}
