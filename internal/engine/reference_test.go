// The reference executor: the engine's pre-vectorization data path,
// preserved verbatim. It streams (leaf, row) tuples, builds Go-map hash
// tables, partitions with append-per-tuple map partitioning, resolves
// every tuple's key through the per-tuple ds.Key map lookup, copies
// every concat and regenerates leaf tuple slices per scan. Its clones run through the engine's own
// clone driver. It exists for two reasons: it is the byte-identity
// oracle the golden-Report corpus and FuzzFlatMatchesReference compare
// the flat path against, and it is the baseline of
// BenchmarkEngineRun/reference (so it must keep paying the old
// allocation costs honestly). Selected with reference().
package engine

import (
	"fmt"

	"mdrs/internal/costmodel"
	"mdrs/internal/obs"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/sched"
)

// Tuple identifies one row flowing through the reference executor: a
// row of its carrier leaf relation.
type Tuple struct {
	Leaf int32 // leaf relation index within the Dataset
	Row  int32 // row within the leaf
}

// Key returns tuple t's key for the given join node. It fails if the
// tuple's carrier leaf does not carry a column for that join, which
// indicates a dataflow bug.
func (ds *Dataset) Key(t Tuple, join *query.PlanNode) (int32, error) {
	if jc := ds.joins[join]; jc != nil {
		if col := jc.cols[t.Leaf]; col != nil {
			return col[t.Row], nil
		}
	}
	return 0, fmt.Errorf("engine: leaf %s carries no key for the requested join",
		ds.leaves[t.Leaf].Name)
}

// reference returns e with the reference executor hooked in through
// Engine.runOp. The hook owns the tuple streams and the map tables of
// the joins in flight, so concurrent runs each need their own
// reference() value. It hands each stream's length to the run state,
// where Run reads the operators' cardinalities.
func reference(e Engine) Engine {
	outputs := make(map[*plan.Operator][]Tuple)
	tables := make(map[int][]map[int32][]Tuple)
	e.runOp = func(e Engine, pl *sched.OpPlacement, ds *Dataset, st *runState,
		rep *Report) ([]*cloneMeter, error) {
		meters, err := e.runOperatorRef(pl, ds, outputs, tables, rep)
		st.outputs[pl.Op.ID] = stream{n: len(outputs[pl.Op])}
		return meters, err
	}
	return e
}

// newMeters builds n fresh meters with the coordinator's startup
// charged, as meterSlab.take does, for the executors that build their
// meters per operator: the reference executor and the metering oracle.
func newMeters(n int, p costmodel.Params) []*cloneMeter {
	return new(meterSlab).take(n, p)
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
		parts := splitRef(all, n)
		out := make([][]Tuple, n)
		err = e.eachClone(op, n, func(k int) error {
			rows := parts[k]
			pages := p.Pages(len(rows))
			meters[k].addDiskPages(pages, p)
			meters[k].addCPU(float64(float64(pages)*p.ReadPageInstr)+float64(float64(len(rows))*p.ExtractInstr), p)
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
		in, err := producerInputRef(op, outputs)
		if err != nil {
			return nil, err
		}
		parts, err := partitionByKey(ds, in, op.Source, n)
		if err != nil {
			return nil, err
		}
		partials := make([]map[int32][]Tuple, n)
		err = e.eachClone(op, n, func(k int) error {
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
		in, err := producerInputRef(op, outputs)
		if err != nil {
			return nil, err
		}
		parts, err := partitionByKey(ds, in, op.Source, n)
		if err != nil {
			return nil, err
		}
		outerCarrier := OuterIsCarrier(op.Source)
		out := make([][]Tuple, n)
		err = e.eachClone(op, n, func(k int) error {
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
			meters[k].addCPU(float64(float64(len(parts[k]))*p.ProbeInstr)+float64(float64(len(res))*p.ExtractInstr), p)
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
		in, err := producerInputRef(op, outputs)
		if err != nil {
			return nil, err
		}
		parts := splitRef(in, n)
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
	out := make([]Tuple, ds.leaves[i].Tuples)
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
// so matching keys always co-locate. The flat path's exchanges count
// exactly its partitions' sizes.
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

// producerInputRef returns the stream of op's pipeline producer.
func producerInputRef(op *plan.Operator, outputs map[*plan.Operator][]Tuple) ([]Tuple, error) {
	prod, err := producerOf(op)
	if err != nil {
		return nil, err
	}
	return outputs[prod], nil
}

// splitRef divides tuples into n near-equal contiguous ranges.
func splitRef(all []Tuple, n int) [][]Tuple {
	parts := make([][]Tuple, n)
	pos := 0
	for k := range parts {
		sz := splitContiguous(len(all), n, k)
		parts[k] = all[pos : pos+sz]
		pos += sz
	}
	return parts
}
