// The reference executor: the engine's pre-vectorization data path,
// preserved verbatim. It builds Go-map hash tables, partitions with
// append-per-tuple map partitioning, resolves every tuple's key through
// the per-tuple ds.Key map lookup, copies every concat, regenerates
// leaf tuple slices per scan, and spawns one goroutine per clone in
// Parallel mode. It exists for two reasons: it is the byte-identity
// oracle the golden-Report corpus and FuzzFlatMatchesReference compare
// the flat path against, and it is the baseline of
// BenchmarkEngineRun/reference (so it must keep paying the old
// allocation costs honestly). Selected with reference().
package engine

import (
	"fmt"
	"sync"

	"mdrs/internal/costmodel"
	"mdrs/internal/obs"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/sched"
)

// reference returns e with the reference executor hooked in through
// Engine.runOp. The hook owns the map tables of the joins in flight, so
// concurrent runs each need their own reference() value.
func reference(e Engine) Engine {
	tables := make(map[int][]map[int32][]Tuple)
	e.runOp = func(e Engine, pl *sched.OpPlacement, ds *Dataset, st *runState,
		rep *Report) ([]*cloneMeter, error) {
		return e.runOperatorRef(pl, ds, st.outputs, tables, rep)
	}
	return e
}

// runOperatorRef executes one placed operator through the reference
// data path and returns its per-clone meters (aligned with pl.Sites).
func (e Engine) runOperatorRef(pl *sched.OpPlacement, ds *Dataset,
	outputs map[*plan.Operator][]Tuple, tables map[int][]map[int32][]Tuple,
	rep *Report) ([]*cloneMeter, error) {

	n := pl.Degree
	op := pl.Op
	p := e.Model.Params
	meters := newMeters(n, p)

	switch op.Kind {
	case costmodel.Scan:
		leafIdx, err := ds.LeafIndex(op.Source)
		if err != nil {
			return nil, err
		}
		all := leafTuplesRef(ds, leafIdx)
		parts := splitContiguous(all, n)
		out := make([][]Tuple, n)
		err = e.eachCloneRef(op, n, func(k int) error {
			rows := parts[k]
			pages := p.Pages(len(rows))
			meters[k].addDiskPages(pages, p)
			meters[k].addCPU(float64(pages)*p.ReadPageInstr+float64(len(rows))*p.ExtractInstr, p)
			if op.Spec.NetOut {
				meters[k].addNetTuples(len(rows), p)
			}
			out[k] = rows
			return nil
		})
		if err != nil {
			return nil, err
		}
		outputs[op] = concatRef(out)
		obs.Count(e.Rec, "engine.tuples_scanned", int64(len(all)))

	case costmodel.Build:
		in, _, err := e.producerInput(op, outputs)
		if err != nil {
			return nil, err
		}
		parts, err := partitionByKey(ds, in, op.Source, n)
		if err != nil {
			return nil, err
		}
		partials := make([]map[int32][]Tuple, n)
		err = e.eachCloneRef(op, n, func(k int) error {
			table := make(map[int32][]Tuple, len(parts[k]))
			for _, t := range parts[k] {
				key, err := ds.Key(t, op.Source)
				if err != nil {
					return err
				}
				table[key] = append(table[key], t)
			}
			if op.Spec.NetIn {
				meters[k].addNetTuples(len(parts[k]), p)
			}
			meters[k].addCPU(float64(len(parts[k]))*(p.ExtractInstr+p.HashInstr), p)
			partials[k] = table
			return nil
		})
		if err != nil {
			return nil, err
		}
		tables[op.JoinID] = partials
		outputs[op] = nil // the table is the output; nothing streams on
		obs.Count(e.Rec, "engine.tuples_built", int64(len(in)))

	case costmodel.Probe:
		partials, ok := tables[op.JoinID]
		if !ok {
			return nil, fmt.Errorf("probing join %d before its build", op.JoinID)
		}
		if len(partials) != n {
			return nil, fmt.Errorf("probe degree %d != build degree %d", n, len(partials))
		}
		in, _, err := e.producerInput(op, outputs)
		if err != nil {
			return nil, err
		}
		parts, err := partitionByKey(ds, in, op.Source, n)
		if err != nil {
			return nil, err
		}
		outerCarrier := OuterIsCarrier(op.Source)
		out := make([][]Tuple, n)
		err = e.eachCloneRef(op, n, func(k int) error {
			var res []Tuple
			for _, t := range parts[k] {
				key, err := ds.Key(t, op.Source)
				if err != nil {
					return err
				}
				matches := partials[k][key]
				if outerCarrier {
					// Inner keys are unique: at most one match survives,
					// and the outer tuple's identity carries on.
					if len(matches) > 0 {
						res = append(res, t)
					}
				} else {
					res = append(res, matches...)
				}
			}
			if op.Spec.NetIn {
				meters[k].addNetTuples(len(parts[k]), p)
			}
			if op.Spec.NetOut {
				meters[k].addNetTuples(len(res), p)
			}
			meters[k].addCPU(float64(len(parts[k]))*p.ProbeInstr+float64(len(res))*p.ExtractInstr, p)
			out[k] = res
			return nil
		})
		if err != nil {
			return nil, err
		}
		result := concatRef(out)
		rep.JoinResults[op.JoinID] = len(result)
		if len(result) != op.Spec.ResultTuples {
			return nil, fmt.Errorf("join %d produced %d tuples, expected %d",
				op.JoinID, len(result), op.Spec.ResultTuples)
		}
		outputs[op] = result
		obs.Count(e.Rec, "engine.tuples_probed", int64(len(in)))
		obs.Count(e.Rec, "engine.tuples_joined", int64(len(result)))

	case costmodel.Store:
		in, _, err := e.producerInput(op, outputs)
		if err != nil {
			return nil, err
		}
		parts := splitContiguous(in, n)
		err = e.eachCloneRef(op, n, func(k int) error {
			pages := p.Pages(len(parts[k]))
			meters[k].addDiskPages(pages, p)
			meters[k].addCPU(float64(pages)*p.WritePageInstr, p)
			if op.Spec.NetIn {
				meters[k].addNetTuples(len(parts[k]), p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		outputs[op] = in // materialization preserves the stream
		obs.Count(e.Rec, "engine.tuples_stored", int64(len(in)))

	default:
		return nil, fmt.Errorf("unsupported operator kind %v", op.Kind)
	}
	return meters, nil
}

// leafTuplesRef regenerates leaf i's identity tuples per call — the
// pre-cache behavior, kept so the reference sub-benchmark still pays
// the O(rows) allocation every scan used to.
func leafTuplesRef(ds *Dataset, i int32) []Tuple {
	ld := ds.leaves[i]
	out := make([]Tuple, ld.rel.Tuples)
	for r := range out {
		out[r] = Tuple{Leaf: i, Row: int32(r)}
	}
	return out
}

// partitionOf maps a join key to a partition in [0, n) with a
// multiplicative mix so that structured key sets still spread evenly.
// It is the partition function as the reference path computes it, with
// the hardware divide; the flat path's partitionBy must agree with it
// on every key and degree.
func partitionOf(key int32, n int) int {
	h := uint32(key) * hashMul // Knuth's multiplicative hash constant
	return int(h % uint32(n))
}

// partitionByKey hash-partitions tuples on their key for the given join
// into n buckets with the reference path's append-per-tuple loop and
// per-tuple ds.Key map lookup. Build and probe use the same function,
// so matching keys always co-locate. radixPartition reproduces its
// partition contents and order exactly.
func partitionByKey(ds *Dataset, in []Tuple, join *query.PlanNode, n int) ([][]Tuple, error) {
	parts := make([][]Tuple, n)
	for _, t := range in {
		key, err := ds.Key(t, join)
		if err != nil {
			return nil, err
		}
		parts[partitionOf(key, n)] = append(parts[partitionOf(key, n)], t)
	}
	return parts, nil
}

// concatRef copies parts into one freshly allocated slice — the
// reference path's full-copy merge.
func concatRef(parts [][]Tuple) []Tuple {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]Tuple, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// eachCloneRef is the reference path's clone driver: one goroutine per
// clone in Parallel mode, unbounded at degree ≫ GOMAXPROCS. Shares the
// ctx/failClone/recording wrapper with the flat path, so both fail on
// the same deterministic lowest clone index.
func (e Engine) eachCloneRef(op *plan.Operator, n int, fn func(k int) error) error {
	run := e.cloneFn(op, fn)
	if !e.Parallel || n == 1 {
		for k := 0; k < n; k++ {
			if err := run(k); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = run(k)
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
