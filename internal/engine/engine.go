package engine

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"mdrs/internal/costmodel"
	"mdrs/internal/obs"
	"mdrs/internal/par"
	"mdrs/internal/plan"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
	"mdrs/internal/vector"
)

// Engine executes a scheduled plan over a generated Dataset, metering
// every clone's work against virtual resource clocks.
type Engine struct {
	Model   costmodel.Model
	Overlap resource.Overlap
	// Parallel runs each operator's clones on separate goroutines
	// (results are merged in clone order, so output is deterministic
	// either way). The goroutine count is clamped to GOMAXPROCS through
	// the internal/par pool — a degree-512 operator no longer spawns
	// 512 goroutines — while the lowest-index-error contract holds.
	Parallel bool
	// Rec, when non-nil, receives execution counters (tuples, clone
	// runs, arena reuse/alloc tallies, flat-table layout tallies), the
	// run/phase timers, and exec_phase trace events. Recorders must be
	// safe for concurrent use when Parallel is set; all the
	// internal/obs implementations are. Nil disables recording.
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
	c.work[resource.Disk] += float64(pages) * p.DiskPageTime
}
func (c *cloneMeter) addNetTuples(tuples int, p costmodel.Params) {
	c.work[resource.Net] += p.Beta * p.Bytes(tuples)
}

// runState is the per-run execution state: the dataflow outputs, the
// live build tables, and the buffer arena plus the ownership set that
// lets consumed intermediates recycle.
type runState struct {
	outputs map[*plan.Operator][]Tuple
	// owned marks outputs whose backing came from the arena (probe
	// results and store pass-throughs) — scan outputs alias the dataset's
	// cached leaf slices and must never be recycled.
	ar     *arena
	owned  map[*plan.Operator]bool
	tables map[int]*joinTables
	// flat-table layout tallies by tableKind, flushed to the recorder
	// after the run.
	layouts [3]int64
}

func newRunState(nOps int) *runState {
	return &runState{
		outputs: make(map[*plan.Operator][]Tuple, nOps),
		ar:      getArena(),
		owned:   make(map[*plan.Operator]bool),
		tables:  make(map[int]*joinTables),
	}
}

// release recycles op's output buffer after its single pipeline
// consumer has finished reading it. Outputs that alias non-arena
// memory (leaf caches) are left alone.
func (st *runState) release(op *plan.Operator) {
	if op == nil || !st.owned[op] {
		return
	}
	st.ar.putTuples(st.outputs[op])
	delete(st.owned, op)
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
	if s.P <= 0 {
		return nil, fmt.Errorf("engine: non-positive site count %d", s.P)
	}
	e.ctx = ctx
	// The schedule carries the operator tree; locate the root (the one
	// operator with no consumer) and check every placement before any
	// operator runs.
	var root *plan.Operator
	nOps := 0
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

	rep := &Report{JoinResults: make(map[int]int), Predicted: s.Response}
	st := newRunState(nOps)
	runOp := Engine.runOperator
	if e.runOp != nil {
		runOp = e.runOp
	}
	start := time.Now()
	defer func() {
		if e.Rec != nil {
			e.Rec.Count("engine.runs", 1)
			e.Rec.Observe("engine.run_seconds", time.Since(start).Seconds())
			e.Rec.Count("engine.arena_reuses", st.ar.reuses)
			e.Rec.Count("engine.arena_allocs", st.ar.allocs)
			e.Rec.Count("engine.tables_bits", st.layouts[tableBits])
			e.Rec.Count("engine.tables_rank", st.layouts[tableRank])
			e.Rec.Count("engine.tables_oa", st.layouts[tableOA])
		}
		// Reclaim whatever owned outputs remain (normally just the
		// root's) and the build tables a failed or cancelled run left
		// unprobed, then hand the arena to the next run.
		for op := range st.owned {
			st.ar.putTuples(st.outputs[op])
		}
		for _, jt := range st.tables {
			jt.release(st.ar)
		}
		st.ar.resetStats()
		putArena(st.ar)
	}()

	for phaseIdx, ph := range s.Phases {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stop := obs.StartTimer(e.Rec, "engine.phase_seconds")
		sys := resource.NewSystem(s.P, resource.Dims, e.Overlap)
		// Producers have smaller IDs than consumers (post-order
		// expansion), so ID order is a valid pipeline topological order.
		placements := slices.Clone(ph.Placements)
		slices.SortFunc(placements, func(a, b *sched.OpPlacement) int {
			return cmp.Compare(a.Op.ID, b.Op.ID)
		})

		for _, pl := range placements {
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
				OutTuples: len(st.outputs[pl.Op]),
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

	rep.ResultTuples = len(st.outputs[root])
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
// outside [0, p) (both panics on the meter-to-site zip in Run).
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
	return nil
}

// newMeters builds one meter per clone and charges the coordinator's
// startup: clone 0 pays α·N, split evenly between CPU and network,
// exactly as the cost model plans it.
func newMeters(n int, p costmodel.Params) []*cloneMeter {
	// One slab of meters and one of work vectors, each meter's vector a
	// cap-limited window of the second.
	const d = resource.Dims
	slab := make([]cloneMeter, n)
	work := make([]float64, n*d)
	meters := make([]*cloneMeter, n)
	for k := range meters {
		slab[k].work = work[k*d : (k+1)*d : (k+1)*d]
		meters[k] = &slab[k]
	}
	startup := p.Alpha * float64(n) / 2
	meters[0].work[resource.CPU] += startup
	meters[0].work[resource.Net] += startup
	return meters
}

// runOperator executes one placed operator through the flat data path
// and returns its per-clone meters (aligned with pl.Sites). Every
// meter value is identical to the reference path's: partition contents,
// match order, and result cardinalities are preserved exactly, so the
// two executors produce byte-identical Reports.
func (e Engine) runOperator(pl *sched.OpPlacement, ds *Dataset, st *runState,
	rep *Report) ([]*cloneMeter, error) {

	meters := newMeters(pl.Degree, e.Model.Params)
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

// runScan meters a partitioned scan of one leaf.
func (e Engine) runScan(pl *sched.OpPlacement, ds *Dataset, st *runState, meters []*cloneMeter) error {
	op, n, p := pl.Op, pl.Degree, e.Model.Params
	leafIdx, err := ds.LeafIndex(op.Source)
	if err != nil {
		return err
	}
	all := ds.LeafTuples(leafIdx)
	parts := splitContiguous(all, n)
	err = e.eachClone(op, n, func(k int) error {
		rows := parts[k]
		pages := p.Pages(len(rows))
		meters[k].addDiskPages(pages, p)
		meters[k].addCPU(float64(pages)*p.ReadPageInstr+float64(len(rows))*p.ExtractInstr, p)
		if op.Spec.NetOut {
			meters[k].addNetTuples(len(rows), p)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// The contiguous parts tile the cached leaf slice in order, so
	// the scan's output IS that slice — no concat copy, no
	// ownership (the cache outlives the run).
	st.outputs[op] = all
	obs.Count(e.Rec, "engine.tuples_scanned", int64(len(all)))
	return nil
}

// exchange radix-partitions the stream feeding op on op's join key,
// scattering the given payload. A stream that comes straight from a
// Scan is that leaf's identity slice, which radixPartition is told so
// it can read the keys from the leaf's column in place.
func (e Engine) exchange(op *plan.Operator, ds *Dataset, st *runState, n int,
	pay payload) (radixParts, *plan.Operator, error) {

	in, prod, err := e.producerInput(op, st.outputs)
	if err != nil {
		return radixParts{}, nil, err
	}
	scanLeaf := int32(-1)
	if prod.Kind == costmodel.Scan {
		if scanLeaf, err = ds.LeafIndex(prod.Source); err != nil {
			return radixParts{}, nil, err
		}
	}
	rp, err := radixPartition(st.ar, ds, op.Source, in, scanLeaf, n, pay)
	return rp, prod, err
}

// runBuild partitions the build side and fills one flat table per
// clone. An outer-carrier join's probe only asks whether a key is
// there, so its build ships and stores keys alone.
func (e Engine) runBuild(pl *sched.OpPlacement, ds *Dataset, st *runState, meters []*cloneMeter) error {
	op, n, p := pl.Op, pl.Degree, e.Model.Params
	outerCarrier := OuterIsCarrier(op.Source)
	pay := payRows
	if outerCarrier {
		pay = payKeys
	}
	rp, prod, err := e.exchange(op, ds, st, n, pay)
	if err != nil {
		return err
	}
	jt := newJoinTables(st.ar, ds, op.Source, &rp, n, outerCarrier)
	for k := range jt.clones {
		st.layouts[jt.clones[k].kind]++
	}
	err = e.eachClone(op, n, func(k int) error {
		var rows []int32
		if !outerCarrier {
			rows = rp.rows(k)
		}
		if err := jt.clones[k].insert(rows, rp.keys(k)); err != nil {
			return err
		}
		if op.Spec.NetIn {
			meters[k].addNetTuples(rp.size(k), p)
		}
		meters[k].addCPU(float64(rp.size(k))*(p.ExtractInstr+p.HashInstr), p)
		return nil
	})
	built := int64(len(rp.keyback))
	// The tables hold what they need of the partitions.
	rp.release(st.ar)
	if err != nil {
		jt.release(st.ar)
		return err
	}
	st.tables[op.JoinID] = jt
	st.release(prod)
	st.outputs[op] = nil // the table is the output; nothing streams on
	obs.Count(e.Rec, "engine.tuples_built", built)
	return nil
}

// runProbe partitions the probe side, probes each clone's table and
// concatenates the clones' results in clone order. An outer-carrier
// probe passes its own matching tuples on; an inner-carrier probe emits
// the build side's, so it ships keys alone.
func (e Engine) runProbe(pl *sched.OpPlacement, ds *Dataset, st *runState, rep *Report,
	meters []*cloneMeter) error {

	op, n, p := pl.Op, pl.Degree, e.Model.Params
	jt, ok := st.tables[op.JoinID]
	if !ok {
		return fmt.Errorf("probing join %d before its build", op.JoinID)
	}
	if len(jt.clones) != n {
		return fmt.Errorf("probe degree %d != build degree %d", n, len(jt.clones))
	}
	outerCarrier := OuterIsCarrier(op.Source)
	pay := payKeys
	if outerCarrier {
		pay = payTuples
	}
	rp, prod, err := e.exchange(op, ds, st, n, pay)
	if err != nil {
		return err
	}
	out := make([][]Tuple, n)
	for k := 0; k < n; k++ {
		// Capacity hints: presence probes emit at most their input;
		// match probes emit (under the FK discipline) exactly the
		// build partition's size. Either way append can still grow.
		hint := rp.size(k)
		if !outerCarrier {
			hint = int(jt.clones[k].n)
		}
		out[k] = st.ar.getTuples(hint)[:0]
	}
	err = e.eachClone(op, n, func(k int) error {
		var res []Tuple
		var perr error
		if outerCarrier {
			res, perr = jt.clones[k].probePresence(rp.tuples(k), rp.keys(k), out[k])
		} else {
			res, perr = jt.clones[k].probeMatches(rp.keys(k), out[k])
		}
		if perr != nil {
			return perr
		}
		out[k] = res
		if op.Spec.NetIn {
			meters[k].addNetTuples(rp.size(k), p)
		}
		if op.Spec.NetOut {
			meters[k].addNetTuples(len(res), p)
		}
		meters[k].addCPU(float64(rp.size(k))*p.ProbeInstr+float64(len(res))*p.ExtractInstr, p)
		return nil
	})
	probed := int64(len(rp.keyback))
	rp.release(st.ar)
	if err != nil {
		for k := range out {
			st.ar.putTuples(out[k])
		}
		return err
	}
	total := 0
	for k := range out {
		total += len(out[k])
	}
	result := st.ar.getTuples(total)[:0]
	for k := range out {
		result = append(result, out[k]...)
		st.ar.putTuples(out[k])
	}
	st.release(prod)
	jt.release(st.ar)
	delete(st.tables, op.JoinID)
	rep.JoinResults[op.JoinID] = len(result)
	if len(result) != op.Spec.ResultTuples {
		return fmt.Errorf("join %d produced %d tuples, expected %d",
			op.JoinID, len(result), op.Spec.ResultTuples)
	}
	st.outputs[op] = result
	st.owned[op] = true
	obs.Count(e.Rec, "engine.tuples_probed", probed)
	obs.Count(e.Rec, "engine.tuples_joined", int64(len(result)))
	return nil
}

// runStore meters a materialization, which passes its input on.
func (e Engine) runStore(pl *sched.OpPlacement, st *runState, meters []*cloneMeter) error {
	op, n, p := pl.Op, pl.Degree, e.Model.Params
	in, prod, err := e.producerInput(op, st.outputs)
	if err != nil {
		return err
	}
	parts := splitContiguous(in, n)
	err = e.eachClone(op, n, func(k int) error {
		pages := p.Pages(len(parts[k]))
		meters[k].addDiskPages(pages, p)
		meters[k].addCPU(float64(pages)*p.WritePageInstr, p)
		if op.Spec.NetIn {
			meters[k].addNetTuples(len(parts[k]), p)
		}
		return nil
	})
	if err != nil {
		return err
	}
	st.outputs[op] = in // materialization preserves the stream
	// Ownership of the producer's buffer transfers to the store's
	// aliased output.
	if st.owned[prod] {
		delete(st.owned, prod)
		st.owned[op] = true
	}
	obs.Count(e.Rec, "engine.tuples_stored", int64(len(in)))
	return nil
}

// producerInput resolves op's pipeline producer and returns that
// producer's output stream along with the producer itself (so callers
// can release the buffer once consumed). A missing producer is an
// error: reading outputs[nil] instead would silently execute the
// operator over an empty input and misreport every downstream
// cardinality.
func (e Engine) producerInput(op *plan.Operator,
	outputs map[*plan.Operator][]Tuple) ([]Tuple, *plan.Operator, error) {
	prod := producerOf(op)
	if prod == nil {
		return nil, nil, fmt.Errorf("no pipeline producer feeds %s (task of %d operators)",
			op.Name, len(op.Task.Ops))
	}
	return outputs[prod], prod, nil
}

// producerOf returns the operator whose pipelined output feeds op, or
// nil when the task graph holds none (a malformed plan; callers must
// treat nil as an error, not as an empty input).
func producerOf(op *plan.Operator) *plan.Operator {
	// The expansion links producer -> consumer; find the pipeline
	// producer by scanning the task's operators.
	for _, cand := range op.Task.Ops {
		if cand.Consumer == op && cand.ConsumerEdge == plan.Pipeline {
			return cand
		}
	}
	return nil
}

// splitContiguous divides tuples into n near-equal contiguous ranges,
// the no-skew declustering of assumption EA1.
func splitContiguous(all []Tuple, n int) [][]Tuple {
	parts := make([][]Tuple, n)
	base, extra := len(all)/n, len(all)%n
	pos := 0
	for k := 0; k < n; k++ {
		sz := base
		if k < extra {
			sz++
		}
		parts[k] = all[pos : pos+sz]
		pos += sz
	}
	return parts
}

// cloneFn wraps the clone body with the run's cross-cutting layers:
// the cancellation check, the test fault hook, and clone-run
// recording. The wrapping order is identical for the serial, bounded
// parallel, and reference paths, so all three fail on the same
// deterministic lowest clone index.
func (e Engine) cloneFn(op *plan.Operator, fn func(k int) error) func(k int) error {
	run := fn
	if ctx := e.ctx; ctx != nil {
		// Cancellation is checked before every clone body, so a run under
		// an expired context abandons the operator within one clone's
		// work. The check wraps the user fn (inside failClone/recording)
		// so serial and parallel runs fail on the same deterministic
		// lowest clone index.
		inner := run
		run = func(k int) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			return inner(k)
		}
	}
	if e.failClone != nil {
		inner := run
		run = func(k int) error {
			if err := e.failClone(op, k); err != nil {
				return err
			}
			return inner(k)
		}
	}
	if rec := e.Rec; rec != nil {
		inner := run
		run = func(k int) error {
			rec.Count("engine.clone_runs", 1)
			return inner(k)
		}
	}
	return run
}

// eachClone runs fn for every clone index of op, in parallel when
// configured. Parallel mode fans the clones over an internal/par
// bounded pool clamped to GOMAXPROCS — the engine used to spawn one
// goroutine per clone, unbounded at degree ≫ GOMAXPROCS. Errors are
// collected positionally and reduced in index order, so the lowest-
// index error wins and the reported failure is deterministic across
// serial and parallel runs and every pool width. Every arm of
// runOperator must check the returned error — the Scan arm once did
// not, and a failing clone there masqueraded as a clean run.
func (e Engine) eachClone(op *plan.Operator, n int, fn func(k int) error) error {
	run := e.cloneFn(op, fn)
	if !e.Parallel || n == 1 {
		for k := 0; k < n; k++ {
			if err := run(k); err != nil {
				return err
			}
		}
		return nil
	}
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	errs := make([]error, n)
	par.For(w, n, func(k int) { errs[k] = run(k) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
