package engine

import (
	"cmp"
	"context"
	"fmt"
	"slices"
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
	// Rec, when non-nil, receives execution counters (tuples, clone
	// runs, arena reuse/alloc tallies), the run/phase timers, and
	// exec_phase trace events. Nil disables recording.
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

// runState is the per-run execution state: the dataflow outputs, the
// joins in flight, the buffer arena their bitmaps and counts recycle
// through, and the operators' meters.
type runState struct {
	// outputs holds each operator's stream until its consumer has read
	// it.
	outputs map[*plan.Operator]stream
	ar      *arena
	tables  map[int]*joinState
	meters  meterSlab
}

func newRunState(nOps int) *runState {
	return &runState{
		outputs: make(map[*plan.Operator]stream, nOps),
		ar:      getArena(),
		tables:  make(map[int]*joinState),
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

	rep := &Report{
		JoinResults:    make(map[int]int),
		PhaseMeasured:  make([]float64, 0, len(s.Phases)),
		PhasePredicted: make([]float64, 0, len(s.Phases)),
		Operators:      make([]OpReport, 0, nOps),
		Predicted:      s.Response,
	}
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
		}
		// Reclaim the joins a failed or cancelled run left unprobed,
		// then hand the arena to the next run.
		for _, js := range st.tables {
			js.release(st.ar)
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
				OutTuples: st.outputs[pl.Op].n,
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

	rep.ResultTuples = st.outputs[root].n
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
	st.outputs[op] = stream{leaf: leafIdx, n: all}
	obs.Count(e.Rec, "engine.tuples_scanned", int64(all))
	return nil
}

// exchange resolves the stream feeding op, its producer, and the
// stream's key column for op's join with the join's key domain.
func (e Engine) exchange(op *plan.Operator, ds *Dataset, st *runState) (*plan.Operator, stream, []int32, int, error) {
	prod, err := producerOf(op)
	if err != nil {
		return nil, stream{}, nil, 0, err
	}
	in := st.outputs[prod]
	col, domain, err := keyColumn(ds, op.Source, in)
	return prod, in, col, domain, err
}

// runBuild counts the build side's keys per clone. An outer-carrier
// build is the join's smaller operand and fills the join's bitmap. An
// inner-carrier build is the carrier: it keeps its input stream and its
// counts for its probe.
func (e Engine) runBuild(pl *sched.OpPlacement, ds *Dataset, st *runState, meters []*cloneMeter) error {
	op, n, p := pl.Op, pl.Degree, e.Model.Params
	prod, in, col, domain, err := e.exchange(op, ds, st)
	if err != nil {
		return err
	}
	// Registered before its buffers are filled, so a failed run's
	// cleanup releases them.
	js := &joinState{degree: n, counts: st.ar.getInt32(n)}
	st.tables[op.JoinID] = js
	if OuterIsCarrier(op.Source) {
		js.bitmap = st.ar.getInt32(bitmapWords(domain))
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
	delete(st.outputs, prod)
	st.outputs[op] = stream{} // the join state is the output; nothing streams on
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
	js, ok := st.tables[op.JoinID]
	if !ok {
		return fmt.Errorf("probing join %d before its build", op.JoinID)
	}
	if js.degree != n {
		return fmt.Errorf("probe degree %d != build degree %d", n, js.degree)
	}
	prod, in, col, domain, err := e.exchange(op, ds, st)
	if err != nil {
		return err
	}
	buf := st.ar.getInt32(2 * n)
	defer st.ar.putInt32(buf)
	counts, misses := buf[:n], buf[n:]
	carrier, out := counts, in
	if OuterIsCarrier(op.Source) {
		err = countCarrier(js.bitmap, counts, misses, col, domain)
	} else {
		js.bitmap = st.ar.getInt32(bitmapWords(domain))
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
	st.outputs[op] = out
	delete(st.outputs, prod)
	js.release(st.ar)
	delete(st.tables, op.JoinID)
	obs.Count(e.Rec, "engine.tuples_probed", int64(len(col)))
	obs.Count(e.Rec, "engine.tuples_joined", int64(produced))
	return nil
}

// runStore meters a materialization, which passes its input stream on.
func (e Engine) runStore(pl *sched.OpPlacement, st *runState, meters []*cloneMeter) error {
	op, n, p := pl.Op, pl.Degree, e.Model.Params
	prod, err := producerOf(op)
	if err != nil {
		return err
	}
	in := st.outputs[prod]
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
	st.outputs[op] = in
	delete(st.outputs, prod)
	obs.Count(e.Rec, "engine.tuples_stored", int64(in.n))
	return nil
}

// producerOf returns the operator whose pipelined output feeds op. A
// missing producer is an error: reading outputs[nil] instead would
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
