package sched

import (
	"context"
	"errors"
	"fmt"
	"math"

	"mdrs/internal/costmodel"
	"mdrs/internal/plan"
	"mdrs/internal/resource"
	"mdrs/internal/vector"
)

// Priced is one task tree priced for one scheduler: what TreeSchedule
// (Figure 4) derives for every operator before it places a clone — the
// phases, and per operator its degree of parallelism, its cost and its
// T^par — derived once, in phase order. The phase bound is read from it
// and the placement places from it; neither derives anything again.
//
// The zero value is ready for TreeScheduler.Price, and each Price
// overwrites the record, so one Priced serves many trees. Like any
// scheduling scratch it is single-goroutine state while it is priced.
// Price lays the phase lists out in the record's own slab and reuses it,
// unless a schedule placed from the record holds one of its lists: a
// tree that alone feeds a global phase lends its list to that phase.
type Priced struct {
	ts     TreeScheduler
	tt     *plan.TaskTree // nil until a Price succeeds
	phases [][]*plan.Task
	slab   []*plan.Task // the phase lists are windows of it
	lent   bool         // a placed schedule holds a window of slab
	ops    []pricedOp   // by operator ID
	seen   []bool       // checkHome's scratch, one entry per site
}

// pricedOp is one operator's entry in the record.
type pricedOp struct {
	// op is the operator priced under this ID, nil until it is; phase is
	// the phase it runs in.
	op    *plan.Operator
	phase int
	deg   int
	cost  costmodel.OpCost
	tpar  float64
	// home is the operator's Homes entry; a probe's home is its build's
	// placed sites, which only the placement knows.
	home []int
	// costOf is the operator whose cost an earlier build read ahead for
	// its probe, nil if none did.
	costOf *plan.Operator
}

// Price validates ts and tt, prices tt into pr and returns tt's phase
// bound (see PhaseBound). pr.Schedule then places the tree.
func (ts TreeScheduler) Price(pr *Priced, tt *plan.TaskTree) (float64, error) {
	pr.tt = nil
	if err := ts.Validate(); err != nil {
		return 0, err
	}
	if err := tt.Validate(); err != nil {
		return 0, err
	}
	return ts.price(pr, tt)
}

// Schedule places the tree pr was last priced from under the scheduler
// that priced it: the result is bit-identical to that scheduler's
// ScheduleCtx of the tree, whose cancellation contract it keeps.
func (pr *Priced) Schedule(ctx context.Context) (*Schedule, error) {
	if pr.tt == nil {
		return nil, errors.New("sched: schedule of an unpriced tree")
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return pr.ts.scheduleBatch(ctx, sc, []*Priced{pr})
}

// PhaseBound returns the sum, over the phases Schedule would build for
// tt, of each phase's LowerBound, computed from the degrees Schedule
// would give its operators without running the placement loop. Under
// EA1 an operator's clones sum to Model.TotalWork and its coordinator's
// T^seq is Model.TPar, so a phase's term is LowerBound's formula in
// O(ops). Every phase's response is at least its own LB, so PhaseBound
// lower-bounds Schedule(tt).Response, up to float summation order: it
// adds an operator's work in another order than the placed clones do,
// so a caller comparing it with a response needs a tolerance. It is
// Price's bound, and refuses what Schedule refuses.
func (ts TreeScheduler) PhaseBound(tt *plan.TaskTree) (float64, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return ts.Price(sc.records(1)[0], tt)
}

// price is the pricing pass over a valid tree, which returns its phase
// bound: each phase's operators in (task, operator) order, each phase's
// LowerBound term added as it closes. It refuses a degree outside
// [1, P], a home with a site outside [0, P) or two clones at one site, a
// probe not priced after its build, and a T^par that is not finite.
func (ts TreeScheduler) price(pr *Priced, tt *plan.TaskTree) (float64, error) {
	n := 0
	for _, tk := range tt.Tasks {
		n += len(tk.Ops)
	}
	if cap(pr.ops) < n {
		pr.ops = make([]pricedOp, n)
	} else {
		pr.ops = pr.ops[:n]
		clear(pr.ops)
	}
	if pr.lent {
		pr.slab, pr.lent = nil, false
	}
	pr.phases, pr.slab = tt.PhasesInto(ts.Policy, pr.phases, pr.slab)
	var buf [resource.Dims]float64
	total := vector.Vector(buf[:])
	sum := 0.0
	for i, phase := range pr.phases {
		clear(total)
		h := 0.0
		for _, tk := range phase {
			for _, op := range tk.Ops {
				e, err := ts.priceOp(pr, op, i)
				if err != nil {
					return 0, err
				}
				ts.Model.AddTotalWork(total, e.cost, e.deg)
				h = max(h, e.tpar)
			}
		}
		sum += max(total.Length()/float64(ts.P), h)
	}
	pr.ts, pr.tt = ts, tt
	return sum, nil
}

// priceOp fills operator op's entry as phase ph prices it. The degree is
// Section 5.5's rule, here and nowhere else. A probe runs at its build's
// home, so it takes the degree of its build, which an earlier phase
// priced. An operator Homes roots takes the size of its home. Any other
// operator takes its CG_f degree, and a build is further capped by its
// probe's: the join's degree must be coarse grain for the probe as well,
// or the granularity condition could never constrain probes at all. The
// build reads its probe's cost for that and leaves it in the probe's
// entry, so each operator's cost is read once.
func (ts TreeScheduler) priceOp(pr *Priced, op *plan.Operator, ph int) (*pricedOp, error) {
	e := &pr.ops[op.ID]
	if e.costOf != op {
		e.cost = ts.cost(op.Spec)
	}
	var n int
	home := ts.Homes[op.ID]
	switch b := op.BuildOp; {
	case b != nil:
		if uint(b.ID) >= uint(len(pr.ops)) || pr.ops[b.ID].op != b || pr.ops[b.ID].phase >= ph {
			return nil, fmt.Errorf("sched: operator %q scheduled before its build %q", op.Name, b.Name)
		}
		n, home = pr.ops[b.ID].deg, nil
	case home != nil:
		n = len(home)
	default:
		// The CG_f degree, clamped by MaxDegree when set.
		n = ts.Model.DegreeCapped(e.cost, ts.F, ts.P, ts.Overlap, ts.MaxDegree)
		if c := op.Consumer; op.Kind == costmodel.Build && c != nil {
			cost := ts.cost(c.Spec)
			n = min(n, ts.Model.DegreeCapped(cost, ts.F, ts.P, ts.Overlap, ts.MaxDegree))
			if c.BuildOp == op && uint(c.ID) < uint(len(pr.ops)) && pr.ops[c.ID].op == nil {
				pr.ops[c.ID].cost, pr.ops[c.ID].costOf = cost, c
			}
		}
	}
	if n < 1 || n > ts.P {
		return nil, fmt.Errorf("sched: operator %q has degree %d outside [1, %d]", op.Name, n, ts.P)
	}
	if home != nil {
		if len(pr.seen) != ts.P {
			pr.seen = make([]bool, ts.P)
		}
		if err := checkHome(op.Name, home, pr.seen); err != nil {
			return nil, err
		}
	}
	tpar := ts.Model.TPar(e.cost, n, ts.Overlap)
	if !(tpar < math.Inf(1)) {
		return nil, fmt.Errorf("sched: operator %q has T^par %g at degree %d", op.Name, tpar, n)
	}
	e.op, e.phase, e.deg, e.tpar, e.home = op, ph, n, tpar, home
	return e, nil
}

// cost is the operator's cost, read through the cache when one is
// attached; both paths give the same bits.
func (ts TreeScheduler) cost(spec costmodel.OpSpec) costmodel.OpCost {
	if ts.Cache != nil {
		return ts.Cache.Cost(spec)
	}
	return ts.Model.Cost(spec)
}

// checkHome reports a home Schedule refuses: a site outside
// [0, len(seen)) or two clones at one site. seen is scratch of length P.
func checkHome(name string, home []int, seen []bool) error {
	clear(seen)
	for _, s := range home {
		if s < 0 || s >= len(seen) {
			return fmt.Errorf("sched: operator %q home site %d outside [0, %d)", name, s, len(seen))
		}
		if seen[s] {
			return fmt.Errorf("sched: operator %q has two clones homed at site %d", name, s)
		}
		seen[s] = true
	}
	return nil
}
