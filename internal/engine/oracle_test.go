// The metering oracle: a Report computed from per-exchange key
// histograms alone. On generated data no join removes a carrier tuple
// (the foreign-key rule of data.go), so every meter is a function of
// counts — how many of an exchange's keys hash to each clone, and each
// scan's and store's range sizes — and the oracle computes them with one
// partitionBy-and-count pass per exchange: no bitmap, no check, no row.
// It shares no join code with either executor, and its run time is the
// floor under any engine that must produce the same Report by counting.
package engine

import (
	"fmt"
	"reflect"
	"testing"

	"mdrs/internal/costmodel"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/sched"
)

// meteringOracle returns e with the metering oracle hooked in through
// Engine.runOp. The hook remembers each operator's carrier leaf and each
// inner-carrier build's histogram, so concurrent runs each need their
// own meteringOracle value. It hands each output's length to the run
// state, where Run reads the operators' cardinalities.
func meteringOracle(e Engine) Engine {
	leafOf := make(map[*plan.Operator]int32)
	type built struct {
		leaf   int32
		counts []int
	}
	builds := make(map[int]built) // inner-carrier builds by join ID
	e.runOp = func(e Engine, pl *sched.OpPlacement, ds *Dataset, st *runState,
		rep *Report) ([]*cloneMeter, error) {

		op, n, p := pl.Op, pl.Degree, e.Model.Params
		meters := newMeters(n, p)
		var in stream
		if op.Kind != costmodel.Scan {
			prod, err := producerOf(op)
			if err != nil {
				return nil, err
			}
			in = stream{leaf: leafOf[prod], n: st.outputs[prod.ID].n}
		}
		out := stream{leaf: in.leaf}
		switch op.Kind {
		case costmodel.Scan:
			leafIdx, err := ds.LeafIndex(op.Source)
			if err != nil {
				return nil, err
			}
			out = stream{leaf: leafIdx, n: ds.leaves[leafIdx].Tuples}
			for k, m := range meters {
				rows := splitContiguous(out.n, n, k)
				pages := p.Pages(rows)
				m.addDiskPages(pages, p)
				m.addCPU(float64(float64(pages)*p.ReadPageInstr)+float64(float64(rows)*p.ExtractInstr), p)
				if op.Spec.NetOut {
					m.addNetTuples(rows, p)
				}
			}
		case costmodel.Build:
			counts, err := keyHistogram(ds, op.Source, in, n)
			if err != nil {
				return nil, err
			}
			if !OuterIsCarrier(op.Source) {
				builds[op.JoinID] = built{in.leaf, counts}
			}
			for k, m := range meters {
				if op.Spec.NetIn {
					m.addNetTuples(counts[k], p)
				}
				m.addCPU(float64(counts[k])*(p.ExtractInstr+p.HashInstr), p)
			}
			out = stream{}
		case costmodel.Probe:
			counts, err := keyHistogram(ds, op.Source, in, n)
			if err != nil {
				return nil, err
			}
			carrier := counts
			if !OuterIsCarrier(op.Source) {
				b, ok := builds[op.JoinID]
				if !ok {
					return nil, fmt.Errorf("probing join %d before its build", op.JoinID)
				}
				carrier, out.leaf = b.counts, b.leaf
			}
			for k, m := range meters {
				if op.Spec.NetIn {
					m.addNetTuples(counts[k], p)
				}
				if op.Spec.NetOut {
					m.addNetTuples(carrier[k], p)
				}
				m.addCPU(float64(float64(counts[k])*p.ProbeInstr)+float64(float64(carrier[k])*p.ExtractInstr), p)
				out.n += carrier[k]
			}
			rep.JoinResults[op.JoinID] = out.n
			if out.n != op.Spec.ResultTuples {
				return nil, fmt.Errorf("join %d produced %d tuples, expected %d",
					op.JoinID, out.n, op.Spec.ResultTuples)
			}
		case costmodel.Store:
			out = in
			for k, m := range meters {
				rows := splitContiguous(in.n, n, k)
				pages := p.Pages(rows)
				m.addDiskPages(pages, p)
				m.addCPU(float64(pages)*p.WritePageInstr, p)
				if op.Spec.NetIn {
					m.addNetTuples(rows, p)
				}
			}
		default:
			return nil, fmt.Errorf("unsupported operator kind %v", op.Kind)
		}
		leafOf[op] = out.leaf
		st.outputs[op.ID] = stream{n: out.n}
		return meters, nil
	}
	return e
}

// keyHistogram counts how many keys of the stream's whole carrier leaf
// the exchange for the given join sends to each of n clones.
func keyHistogram(ds *Dataset, join *query.PlanNode, in stream, n int) ([]int, error) {
	col := ds.joins[join].cols[in.leaf]
	if col == nil || len(col) != in.n {
		return nil, fmt.Errorf("leaf %s does not carry the join's %d keys", ds.leaves[in.leaf].Name, in.n)
	}
	counts := make([]int, n)
	recip, un := reciprocalOf(n), uint64(n)
	for _, key := range col {
		counts[partitionBy(key, recip, un)]++
	}
	return counts, nil
}

// checkOracle runs the metering oracle over ds and s and fails unless
// its Report equals want, the executors' Report.
func checkOracle(t testing.TB, ds *Dataset, s *sched.Schedule, want *Report) {
	t.Helper()
	got, err := meteringOracle(testEngine()).Run(ds, s)
	if err != nil {
		t.Fatalf("metering oracle: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("metering oracle diverges:\noracle: %+v\nwant:   %+v", got, want)
	}
}
