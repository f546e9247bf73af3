package engine

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"mdrs/internal/costmodel"
	"mdrs/internal/obs"
	"mdrs/internal/plan"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
	"mdrs/internal/vector"
)

// Engine executes a scheduled plan over a generated Dataset, metering
// every clone's work against its virtual site's resource clocks. The
// clones run one after another on the caller's goroutine; what they
// meter does not depend on the host's cores.
type Engine struct {
	Model   costmodel.Model
	Overlap resource.Overlap
	// Deprecated: ignored; clones run serially. Kept only because the
	// frozen bench/ assigns it (ROADMAP 1a).
	Parallel bool
	// Rec, when non-nil, receives execution counters (runs, tuples,
	// clone runs), the run/phase timers, and exec_phase trace events.
	// Nil disables recording.
	Rec obs.Recorder

	// failClone, when non-nil, is consulted before every clone body runs
	// and aborts the clone with the returned error. It exists so tests
	// can inject clone failures into otherwise-infallible arms (the
	// regression tests for the once-dropped Scan error path).
	failClone func(op *plan.Operator, clone int) error

	// runOp, when non-nil, executes every placed operator in place of
	// runOperator. It exists so tests can run a schedule through the
	// reference executor (reference_test.go), the identity oracle and
	// benchmark baseline of the flat data path.
	runOp func(e Engine, pl *sched.OpPlacement, ds *Dataset, st *runState, rep *Report) ([]*cloneMeter, error)

	// ctx is the run's cancellation context, set by RunCtx on its local
	// receiver copy (Engine methods take value receivers, so it never
	// leaks between runs). Checked by the phase loop and before every
	// clone body.
	ctx context.Context
}

// OpReport breaks one executed operator out of a Report: what the
// scheduler predicted for it against what the meters actually measured.
type OpReport struct {
	// Name is the operator's label, e.g. "probe(J3)".
	Name string
	// Kind is the physical operator type.
	Kind costmodel.OpKind
	// Phase is the synchronized phase the operator executed in.
	Phase int
	// Degree is the degree of partitioned parallelism.
	Degree int
	// Rooted marks operators whose placement was fixed before list
	// scheduling.
	Rooted bool
	// Predicted is the scheduler's isolated parallel execution time
	// T^par(op, N) for the operator (Equation 1).
	Predicted float64
	// Measured is the slowest clone's T^seq over the actually metered
	// work vectors — the operator's isolated execution time as run.
	Measured float64
	// OutTuples is the operator's observed output cardinality (0 for
	// builds, whose hash table does not stream on).
	OutTuples int
}

// Report summarizes one execution.
type Report struct {
	// ResultTuples is the cardinality of the query result.
	ResultTuples int
	// JoinResults maps each join ID to its observed result cardinality.
	JoinResults map[int]int
	// PhaseMeasured holds, per phase, the response time computed from
	// the clones' actually metered work vectors via Equation 3.
	PhaseMeasured []float64
	// PhasePredicted holds the scheduler's analytic response per phase,
	// aligned with PhaseMeasured, so divergence can be localized to a
	// phase instead of eyeballing end-to-end totals.
	PhasePredicted []float64
	// Operators breaks the run down per operator, in execution order —
	// the metered-vs-predicted comparison at operator granularity.
	Operators []OpReport
	// Measured is the end-to-end measured response (sum of phases).
	Measured float64
	// Predicted is the scheduler's analytic response for comparison.
	Predicted float64
}

// cloneMeter accumulates one clone's actual resource usage.
type cloneMeter struct {
	work vector.Vector
}

func (c *cloneMeter) addCPU(instr float64, p costmodel.Params) {
	c.work[resource.CPU] += instr / (p.MIPS * 1e6)
}
func (c *cloneMeter) addDiskPages(pages int, p costmodel.Params) {
	c.work[resource.Disk] += float64(float64(pages) * p.DiskPageTime)
}
func (c *cloneMeter) addNetTuples(tuples int, p costmodel.Params) {
	c.work[resource.Net] += float64(p.Beta * p.Bytes(tuples))
}

// meterSlab lends out one zeroed meter per clone, reusing its slabs
// for every operator of a run: Run consumes an operator's meters
// before the next operator runs, and resource.System reads a work
// vector without keeping it. It grows to the largest degree seen.
type meterSlab struct {
	work   []float64
	meters []*cloneMeter
}

// take returns n zeroed meters and charges the coordinator's startup:
// clone 0 pays α·N, split evenly between CPU and network, exactly as
// the cost model plans it.
func (ms *meterSlab) take(n int, p costmodel.Params) []*cloneMeter {
	// One slab of meters and one of work vectors, each meter's vector a
	// cap-limited window of the second.
	const d = resource.Dims
	if n > len(ms.meters) {
		slab := make([]cloneMeter, n)
		ms.work = make([]float64, n*d)
		ms.meters = make([]*cloneMeter, n)
		for k := range ms.meters {
			slab[k].work = ms.work[k*d : (k+1)*d : (k+1)*d]
			ms.meters[k] = &slab[k]
		}
	}
	clear(ms.work[:n*d])
	meters := ms.meters[:n]
	startup := float64(p.Alpha * float64(n) / 2)
	meters[0].work[resource.CPU] += startup
	meters[0].work[resource.Net] += startup
	return meters
}

// runState is everything a run needs besides its Report, recycled
// whole from one run to the next: each operator's output stream and
// whether the run has placed it, indexed by operator ID (dense from 0
// within a tree); the joins, indexed by join ID, each keeping its
// bitmap and counts buffers; a probe's per-clone counts and misses; the
// meters; the phase's site system; and the scratch each phase's
// placements are sorted in. Buffers only grow, so a warm run of a plan
// no larger than one before it allocates none of them. A run owns its
// state alone and executes on one goroutine, clone bodies included.
type runState struct {
	outputs []stream
	placed  []bool
	joins   []joinState
	probe   []int32
	meters  meterSlab
	sys     *resource.System
	order   []*sched.OpPlacement
}

// reset readies the state for a run of operator IDs below ops and join
// IDs below joins: no operator placed, no stream, no join built.
func (st *runState) reset(ops, joins int) {
	st.outputs = grow(st.outputs, ops)
	clear(st.outputs)
	st.placed = grow(st.placed, ops)
	clear(st.placed)
	st.joins = grow(st.joins, joins)
	for i := range st.joins {
		st.joins[i].degree = 0
	}
}

// input returns the stream feeding op: its pipeline producer's output,
// or no stream when no placement of the run has produced it.
func (st *runState) input(op *plan.Operator) (stream, error) {
	prod, err := producerOf(op)
	if err != nil || uint(prod.ID) >= uint(len(st.outputs)) {
		return stream{}, err
	}
	return st.outputs[prod.ID], nil
}

// system returns the state's site system for p sites under ov, empty:
// reset, or rebuilt when p or ov is not what it was built for.
func (st *runState) system(p int, ov resource.Overlap) *resource.System {
	if st.sys == nil || st.sys.P() != p || st.sys.Overlap() != ov {
		st.sys = resource.NewSystem(p, resource.Dims, ov)
	} else {
		st.sys.Reset()
	}
	return st.sys
}

// grow returns b resliced to length n, reallocated only when n exceeds
// its capacity. What the first n elements hold is unspecified.
func grow[T any](b []T, n int) []T {
	if n > cap(b) {
		return make([]T, n)
	}
	return b[:n]
}

// idle holds the run states no run is using, at most GOMAXPROCS of them
// (more runs than that gain nothing from running at once). It is a
// plain free list and not a sync.Pool, which loses what it is there to
// keep: a Pool is emptied by every second garbage collection and hides
// an item put back on one P from a Get on another, and a query that
// generates or loads its data between two runs collects and migrates
// all the time — with a Pool, four runs in ten of a run-after-generate
// loop started on a brand-new state and allocated every buffer again.
// The price is that a state's buffers stay allocated for the life of
// the process.
var idle struct {
	sync.Mutex
	states []*runState
}

// getRunState hands out an idle run state, or a new one.
func getRunState() *runState {
	idle.Lock()
	defer idle.Unlock()
	n := len(idle.states)
	if n == 0 {
		return new(runState)
	}
	st := idle.states[n-1]
	idle.states[n-1] = nil
	idle.states = idle.states[:n-1]
	return st
}

// putRunState takes back the state of a finished run, first dropping
// its references into the run's schedule and dataset (all the way to
// the slices' capacity) so that an idle state keeps neither alive.
func putRunState(st *runState) {
	clear(st.order[:cap(st.order)])
	joins := st.joins[:cap(st.joins)]
	for i := range joins {
		joins[i].col = nil
	}
	idle.Lock()
	defer idle.Unlock()
	if len(idle.states) < runtime.GOMAXPROCS(0) {
		idle.states = append(idle.states, st)
	}
}

// Run executes the schedule over the dataset. The schedule must have
// been produced for the same plan (the same *query.PlanNode) the dataset
// was generated from.
func (e Engine) Run(ds *Dataset, s *sched.Schedule) (*Report, error) {
	return e.RunCtx(context.Background(), ds, s)
}

// RunCtx is Run with a cancellation context: the phase loop and every
// clone body check ctx, so a cancelled or deadline-expired execution
// stops promptly and returns ctx.Err() (possibly wrapped with the
// failing operator's name) instead of metering the rest of the plan. A
// run that completes is identical to Run.
func (e Engine) RunCtx(ctx context.Context, ds *Dataset, s *sched.Schedule) (*Report, error) {
	if err := e.Model.Params.Validate(); err != nil {
		return nil, err
	}
	if s == nil {
		return nil, fmt.Errorf("engine: nil schedule")
	}
	if ds == nil {
		return nil, fmt.Errorf("engine: nil dataset")
	}
	if s.P <= 0 {
		return nil, fmt.Errorf("engine: non-positive site count %d", s.P)
	}
	e.ctx = ctx
	// The schedule carries the operator tree; locate the root (the one
	// operator with no consumer), size the run state by the largest
	// operator and join IDs, and check every placement before any
	// operator runs.
	var root *plan.Operator
	nOps, nIDs, nJoins := 0, 0, 0
	for i, ph := range s.Phases {
		if ph == nil {
			return nil, fmt.Errorf("engine: phase %d is nil", i)
		}
		for _, pl := range ph.Placements {
			if pl == nil || pl.Op == nil {
				return nil, fmt.Errorf("engine: schedule has a placement without an operator")
			}
			if err := checkPlacement(pl, s.P); err != nil {
				return nil, fmt.Errorf("engine: %s: %w", pl.Op.Name, err)
			}
			nOps++
			nIDs = max(nIDs, pl.Op.ID+1)
			nJoins = max(nJoins, pl.Op.JoinID+1) // a scan's or store's is -1
			if pl.Op.Consumer == nil {
				if root != nil {
					return nil, fmt.Errorf("engine: schedule has two root operators")
				}
				root = pl.Op
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("engine: schedule has no root operator")
	}

	rep := &Report{
		JoinResults:    make(map[int]int),
		PhaseMeasured:  make([]float64, 0, len(s.Phases)),
		PhasePredicted: make([]float64, 0, len(s.Phases)),
		Operators:      make([]OpReport, 0, nOps),
		Predicted:      s.Response,
	}
	st := getRunState()
	st.reset(nIDs, nJoins)
	runOp := Engine.runOperator
	if e.runOp != nil {
		runOp = e.runOp
	}
	start := time.Now()
	defer func() {
		if e.Rec != nil {
			e.Rec.Count("engine.runs", 1)
			e.Rec.Observe("engine.run_seconds", time.Since(start).Seconds())
		}
		putRunState(st)
	}()

	for phaseIdx, ph := range s.Phases {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stop := obs.StartTimer(e.Rec, "engine.phase_seconds")
		sys := st.system(s.P, e.Overlap)
		// Producers have smaller IDs than consumers (post-order
		// expansion), so ID order is a valid pipeline topological order.
		st.order = append(st.order[:0], ph.Placements...)
		slices.SortFunc(st.order, func(a, b *sched.OpPlacement) int {
			return cmp.Compare(a.Op.ID, b.Op.ID)
		})

		for _, pl := range st.order {
			if st.placed[pl.Op.ID] {
				return nil, fmt.Errorf("engine: schedule places %s twice", pl.Op.Name)
			}
			st.placed[pl.Op.ID] = true
			meters, err := runOp(e, pl, ds, st, rep)
			if err != nil {
				return nil, fmt.Errorf("engine: %s: %w", pl.Op.Name, err)
			}
			measured := 0.0
			for k, m := range meters {
				sys.Assign(pl.Sites[k], m.work)
				if t := e.Overlap.TSeq(m.work); t > measured {
					measured = t
				}
			}
			rep.Operators = append(rep.Operators, OpReport{
				Name:      pl.Op.Name,
				Kind:      pl.Op.Kind,
				Phase:     phaseIdx,
				Degree:    pl.Degree,
				Rooted:    pl.Rooted,
				Predicted: pl.TPar,
				Measured:  measured,
				OutTuples: st.outputs[pl.Op.ID].n,
			})
		}
		t := sys.MaxTSite()
		rep.PhaseMeasured = append(rep.PhaseMeasured, t)
		rep.PhasePredicted = append(rep.PhasePredicted, ph.Response)
		rep.Measured += t
		stop()
		if e.Rec != nil {
			e.Rec.Observe("engine.phase_measured", t)
			e.Rec.Event(obs.Event{Type: obs.EvExecPhase, Phase: phaseIdx, Response: t})
		}
	}

	rep.ResultTuples = st.outputs[root.ID].n
	want := root.Spec.ResultTuples
	if want == 0 && root.Kind == costmodel.Scan {
		want = root.Spec.InTuples
	}
	if rep.ResultTuples != want {
		return nil, fmt.Errorf("engine: result cardinality %d != expected %d",
			rep.ResultTuples, want)
	}
	return rep, nil
}

// checkPlacement rejects the malformed-placement shapes that used to
// fail silently or panic: a degree below one (divide-by-zero in
// partitionOf, empty splits), a Sites/Degree mismatch and a clone site
// outside [0, p) (both panics on the meter-to-site zip in Run), and a
// negative operator or join ID, which indexes the run state.
func checkPlacement(pl *sched.OpPlacement, p int) error {
	if pl.Degree < 1 {
		return fmt.Errorf("placement degree %d < 1", pl.Degree)
	}
	if len(pl.Sites) != pl.Degree {
		return fmt.Errorf("placement has %d sites for %d clones", len(pl.Sites), pl.Degree)
	}
	for k, site := range pl.Sites {
		if site < 0 || site >= p {
			return fmt.Errorf("clone %d at site %d outside [0, %d)", k, site, p)
		}
	}
	if pl.Op.ID < 0 {
		return fmt.Errorf("operator ID %d < 0", pl.Op.ID)
	}
	if k := pl.Op.Kind; (k == costmodel.Build || k == costmodel.Probe) && pl.Op.JoinID < 0 {
		return fmt.Errorf("join ID %d < 0", pl.Op.JoinID)
	}
	return nil
}

// runOperator executes one placed operator through the flat data path
// and returns its per-clone meters (aligned with pl.Sites). Every
// meter value is identical to the reference path's: each clone's input
// and output counts are the sizes of the reference clone's multisets of
// rows, so the two executors produce byte-identical Reports.
func (e Engine) runOperator(pl *sched.OpPlacement, ds *Dataset, st *runState,
	rep *Report) ([]*cloneMeter, error) {

	meters := st.meters.take(pl.Degree, e.Model.Params)
	var err error
	switch pl.Op.Kind {
	case costmodel.Scan:
		err = e.runScan(pl, ds, st, meters)
	case costmodel.Build:
		err = e.runBuild(pl, ds, st, meters)
	case costmodel.Probe:
		err = e.runProbe(pl, ds, st, rep, meters)
	case costmodel.Store:
		err = e.runStore(pl, st, meters)
	default:
		err = fmt.Errorf("unsupported operator kind %v", pl.Op.Kind)
	}
	if err != nil {
		return nil, err
	}
	return meters, nil
}

// runScan meters a partitioned scan of one leaf. Its output is the
// leaf in row order, which the clones' contiguous ranges tile.
func (e Engine) runScan(pl *sched.OpPlacement, ds *Dataset, st *runState, meters []*cloneMeter) error {
	op, n, p := pl.Op, pl.Degree, e.Model.Params
	leafIdx, err := ds.LeafIndex(op.Source)
	if err != nil {
		return err
	}
	all := ds.leaves[leafIdx].Tuples
	err = e.eachClone(op, n, func(k int) error {
		rows := splitContiguous(all, n, k)
		pages := p.Pages(rows)
		meters[k].addDiskPages(pages, p)
		meters[k].addCPU(float64(float64(pages)*p.ReadPageInstr)+float64(float64(rows)*p.ExtractInstr), p)
		if op.Spec.NetOut {
			meters[k].addNetTuples(rows, p)
		}
		return nil
	})
	if err != nil {
		return err
	}
	st.outputs[op.ID] = stream{leaf: leafIdx, n: all}
	obs.Count(e.Rec, "engine.tuples_scanned", int64(all))
	return nil
}

// exchange resolves the stream feeding op and the stream's key column
// for op's join with the join's key domain.
func exchange(op *plan.Operator, ds *Dataset, st *runState) (stream, []int32, int, error) {
	in, err := st.input(op)
	if err != nil {
		return stream{}, nil, 0, err
	}
	col, domain, err := keyColumn(ds, op.Source, in)
	return in, col, domain, err
}

// runBuild counts the build side's keys per clone. An outer-carrier
// build is the join's smaller operand and fills the join's bitmap. An
// inner-carrier build is the carrier: it keeps its input stream and its
// counts for its probe. Nothing streams on from a build: the join's
// state is its output.
func (e Engine) runBuild(pl *sched.OpPlacement, ds *Dataset, st *runState, meters []*cloneMeter) error {
	op, n, p := pl.Op, pl.Degree, e.Model.Params
	in, col, domain, err := exchange(op, ds, st)
	if err != nil {
		return err
	}
	js := &st.joins[op.JoinID]
	js.degree, js.counts = n, grow(js.counts, n)
	if OuterIsCarrier(op.Source) {
		js.bitmap = grow(js.bitmap, bitmapWords(domain))
		err = fillBitmap(js.bitmap, js.counts, col, domain, op.JoinID)
	} else {
		js.col, js.in = col, in
		err = countCarrier(nil, js.counts, nil, col, domain)
	}
	if err != nil {
		return err
	}
	err = e.eachClone(op, n, func(k int) error {
		m := int(js.counts[k])
		if op.Spec.NetIn {
			meters[k].addNetTuples(m, p)
		}
		meters[k].addCPU(float64(m)*(p.ExtractInstr+p.HashInstr), p)
		return nil
	})
	if err != nil {
		return err
	}
	obs.Count(e.Rec, "engine.tuples_built", int64(len(col)))
	return nil
}

// runProbe counts the probe side's keys per clone and the carrier's
// misses, and meters each clone's semi-join. An outer-carrier probe is
// the carrier: its pass checks its keys against the build's bitmap. An
// inner-carrier probe is the smaller operand: it fills the bitmap with
// its keys and then checks the build's key column against it. A clone
// emits its carrier partition less the keys the bitmap lacks. A run
// that passes the cardinality check has no misses, so the join's output
// is its carrier's input stream, passed on.
func (e Engine) runProbe(pl *sched.OpPlacement, ds *Dataset, st *runState, rep *Report,
	meters []*cloneMeter) error {

	op, n, p := pl.Op, pl.Degree, e.Model.Params
	js := &st.joins[op.JoinID]
	if js.degree == 0 {
		return fmt.Errorf("probing join %d before its build", op.JoinID)
	}
	if js.degree != n {
		return fmt.Errorf("probe degree %d != build degree %d", n, js.degree)
	}
	in, col, domain, err := exchange(op, ds, st)
	if err != nil {
		return err
	}
	st.probe = grow(st.probe, 2*n)
	counts, misses := st.probe[:n], st.probe[n:]
	carrier, out := counts, in
	if OuterIsCarrier(op.Source) {
		err = countCarrier(js.bitmap, counts, misses, col, domain)
	} else {
		js.bitmap = grow(js.bitmap, bitmapWords(domain))
		if err = fillBitmap(js.bitmap, counts, col, domain, op.JoinID); err == nil {
			countMisses(js.bitmap, misses, js.col)
		}
		carrier, out = js.counts, js.in
	}
	if err != nil {
		return err
	}
	produced := 0
	err = e.eachClone(op, n, func(k int) error {
		emitted := int(carrier[k] - misses[k])
		produced += emitted
		if op.Spec.NetIn {
			meters[k].addNetTuples(int(counts[k]), p)
		}
		if op.Spec.NetOut {
			meters[k].addNetTuples(emitted, p)
		}
		meters[k].addCPU(float64(float64(counts[k])*p.ProbeInstr)+float64(float64(emitted)*p.ExtractInstr), p)
		return nil
	})
	if err != nil {
		return err
	}
	rep.JoinResults[op.JoinID] = produced
	if produced != op.Spec.ResultTuples {
		return fmt.Errorf("join %d produced %d tuples, expected %d",
			op.JoinID, produced, op.Spec.ResultTuples)
	}
	// A stream shortened by misses that the expected cardinality
	// forgave is no longer its whole leaf, and fails the next exchange.
	out.n = produced
	st.outputs[op.ID] = out
	js.degree = 0 // the probe consumes the join
	obs.Count(e.Rec, "engine.tuples_probed", int64(len(col)))
	obs.Count(e.Rec, "engine.tuples_joined", int64(produced))
	return nil
}

// runStore meters a materialization, which passes its input stream on.
func (e Engine) runStore(pl *sched.OpPlacement, st *runState, meters []*cloneMeter) error {
	op, n, p := pl.Op, pl.Degree, e.Model.Params
	in, err := st.input(op)
	if err != nil {
		return err
	}
	err = e.eachClone(op, n, func(k int) error {
		rows := splitContiguous(in.n, n, k)
		pages := p.Pages(rows)
		meters[k].addDiskPages(pages, p)
		meters[k].addCPU(float64(pages)*p.WritePageInstr, p)
		if op.Spec.NetIn {
			meters[k].addNetTuples(rows, p)
		}
		return nil
	})
	if err != nil {
		return err
	}
	st.outputs[op.ID] = in
	obs.Count(e.Rec, "engine.tuples_stored", int64(in.n))
	return nil
}

// producerOf returns the operator whose pipelined output feeds op. A
// missing producer is an error: reading no producer's output instead would
// silently execute the operator over an empty input and misreport
// every downstream cardinality.
func producerOf(op *plan.Operator) (*plan.Operator, error) {
	// The expansion links producer -> consumer; find the pipeline
	// producer by scanning the task's operators.
	for _, cand := range op.Task.Ops {
		if cand.Consumer == op && cand.ConsumerEdge == plan.Pipeline {
			return cand, nil
		}
	}
	return nil, fmt.Errorf("no pipeline producer feeds %s (task of %d operators)",
		op.Name, len(op.Task.Ops))
}

// splitContiguous returns the size of range k when m rows are divided
// into n near-equal contiguous ranges, the no-skew declustering of
// assumption EA1.
func splitContiguous(m, n, k int) int {
	sz := m / n
	if k < m%n {
		sz++
	}
	return sz
}

// eachClone runs fn for every clone index of op, in index order on the
// run's goroutine. Before each clone body it counts the clone run, asks
// the test fault hook and checks the run's context, in that order; the
// first clone that fails stops the operator, so no later clone body runs
// and the error is that clone's. Every arm of runOperator must check the
// returned error — the Scan arm once did not, and a failing clone there
// masqueraded as a clean run.
func (e Engine) eachClone(op *plan.Operator, n int, fn func(k int) error) error {
	for k := 0; k < n; k++ {
		obs.Count(e.Rec, "engine.clone_runs", 1)
		if e.failClone != nil {
			if err := e.failClone(op, k); err != nil {
				return err
			}
		}
		if e.ctx != nil {
			if err := e.ctx.Err(); err != nil {
				return err
			}
		}
		if err := fn(k); err != nil {
			return err
		}
	}
	return nil
}
