package sched

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mdrs/internal/costmodel"
	"mdrs/internal/obs"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
	"mdrs/internal/vector"
)

// The step-2 list is held as runs of equal-length clones, and every
// random-float test input has none: these cases have the shapes that do
// — what the cost model emits, and the corners of the run encoding —
// and hold the placement to the per-clone-sort + naive-scan oracle
// (scheduleByScan) clone by clone.

// scanInArrivalOrder is scheduleByScan for the list-order ablation: the
// same naive loop with L left in arrival order.
func scanInArrivalOrder(p, d int, ov resource.Overlap, ops []*Op) (map[int][]int, float64) {
	sys := resource.NewSystem(p, d, ov)
	sites := make(map[int][]int, len(ops))
	for _, op := range ops {
		sites[op.ID] = make([]int, len(op.Clones))
		for k, w := range op.Clones {
			if op.Rooted() {
				sys.Assign(op.Home[k], w)
				sites[op.ID][k] = op.Home[k]
			}
		}
	}
	for _, op := range ops {
		if op.Rooted() {
			continue
		}
		bans := make([]bool, p)
		for k, w := range op.Clones {
			s := pickScan(sys, bans)
			sys.Assign(s, w)
			bans[s] = true
			sites[op.ID][k] = s
		}
	}
	return sites, sys.MaxTSite()
}

// placementCase is one OperatorSchedule input; runs is the length of
// the step-2 list it must produce.
type placementCase struct {
	name string
	p, d int
	ops  []*Op
	runs int
}

func vecs(ws ...[]float64) []vector.Vector {
	out := make([]vector.Vector, len(ws))
	for i, w := range ws {
		out[i] = vector.Of(w...)
	}
	return out
}

// repeated is a coordinator vector followed by n-1 copies of rest: the
// EA1 shape of costmodel.Model.Clones.
func repeated(n int, coord, rest []float64) []vector.Vector {
	out := vecs(coord)
	for len(out) < n {
		out = append(out, vector.Of(rest...))
	}
	return out
}

// ea1Ops is one seeded plan's operators as TreeSchedule derives them at
// P sites — the CG_f degree (f = 0.7, ε = 0.5) and
// costmodel.Model.Clones — all floating: per operator, a coordinator
// vector and N−1 equal ones, the runs the cost model really emits.
func ea1Ops(seed int64, joins, p int) []*Op {
	r := rand.New(rand.NewSource(seed))
	ot := plan.MustExpand(query.MustRandom(r, query.DefaultGenConfig(joins)))
	ts := TreeScheduler{Model: costmodel.Default(), Overlap: ov(0.5), P: p, F: 0.7}
	ops := make([]*Op, len(ot.Ops))
	for i, o := range ot.Ops {
		ops[i] = &Op{ID: o.ID, Clones: ts.Model.Clones(ts.Model.Cost(o.Spec), ts.degree(o.Spec))}
	}
	return ops
}

func runCases() []placementCase {
	return []placementCase{
		{name: "cost-model shape", p: 8, d: 2, runs: 6, ops: []*Op{
			{ID: 0, Clones: repeated(4, []float64{4, 2}, []float64{3, 1})},
			{ID: 1, Clones: repeated(6, []float64{4, 3}, []float64{2, 3})},
			{ID: 2, Clones: repeated(3, []float64{7, 1}, []float64{4, 0})},
		}},
		{name: "equal length, different vectors", p: 5, d: 2, runs: 2, ops: []*Op{
			{ID: 0, Clones: vecs([]float64{3, 1}, []float64{1, 3}, []float64{3, 3}, []float64{3, 0})},
			{ID: 1, Clones: vecs([]float64{0, 3}, []float64{3, 2})},
		}},
		{name: "5 3 5 within one operator", p: 3, d: 1, runs: 5, ops: []*Op{
			{ID: 2, Clones: vecs([]float64{5}, []float64{3}, []float64{5})},
			{ID: 1, Clones: vecs([]float64{3}, []float64{5})},
		}},
		{name: "equal lengths, interleaved IDs", p: 4, d: 2, runs: 4, ops: []*Op{
			{ID: 5, Clones: repeated(3, []float64{2, 1}, []float64{2, 1})},
			{ID: 1, Clones: repeated(2, []float64{1, 2}, []float64{1, 2})},
			{ID: 3, Clones: repeated(4, []float64{2, 2}, []float64{2, 0})},
			{ID: 2, Clones: repeated(1, []float64{0, 2}, nil)},
		}},
		{name: "all zero", p: 4, d: 3, runs: 3, ops: []*Op{
			{ID: 0, Clones: repeated(4, []float64{0, 0, 0}, []float64{0, 0, 0})},
			{ID: 1, Clones: repeated(2, []float64{0, 0, 0}, []float64{0, 0, 0})},
			{ID: 2, Clones: repeated(3, []float64{0, 0, 0}, []float64{0, 0, 0})},
		}},
		{name: "degree = P", p: 6, d: 2, runs: 5, ops: []*Op{
			{ID: 0, Clones: repeated(6, []float64{5, 1}, []float64{2, 2})},
			{ID: 1, Clones: repeated(6, []float64{1, 4}, []float64{2, 1})},
			{ID: 2, Clones: repeated(6, []float64{3, 3}, []float64{3, 0})},
		}},
		{name: "rooted in the mix", p: 7, d: 2, runs: 4, ops: []*Op{
			{ID: 0, Clones: repeated(3, []float64{6, 0}, []float64{2, 0}), Home: []int{4, 5, 6}},
			{ID: 1, Clones: repeated(5, []float64{3, 1}, []float64{2, 1})},
			{ID: 2, Clones: repeated(2, []float64{0, 2}, []float64{0, 2}), Home: []int{6, 0}},
			{ID: 3, Clones: repeated(7, []float64{3, 2}, []float64{2, 1})},
		}},
		{name: "P = 1", p: 1, d: 2, runs: 2, ops: []*Op{
			{ID: 0, Clones: vecs([]float64{1, 1})},
			{ID: 1, Clones: vecs([]float64{1, 1})},
		}},
	}
}

// checkPlacementAgainstScan runs every arm of operatorSchedule — sorted,
// sorted with a recorder, and arrival order — and requires each clone's
// site and the response to be the naive scan's, and both list orders'
// decision traces to be the clone-by-clone index's (checkAgainstCloneIndex).
func checkPlacementAgainstScan(t *testing.T, p, d int, ops []*Op) {
	t.Helper()
	checkAgainstCloneIndex(t, p, d, ops, true)
	checkAgainstCloneIndex(t, p, d, ops, false)
	o := ov(0.5)
	wantSites, wantResp := scheduleByScan(p, d, o, ops)
	arms := []struct {
		name string
		run  func() (*Result, error)
	}{
		{"sorted", func() (*Result, error) { return OperatorSchedule(p, d, o, ops) }},
		{"observed", func() (*Result, error) { return OperatorScheduleObserved(p, d, o, ops, obs.NewMetrics(), 0) }},
	}
	for _, arm := range arms {
		got, err := arm.run()
		if err != nil {
			t.Fatalf("%s: %v", arm.name, err)
		}
		if !reflect.DeepEqual(got.Sites, wantSites) {
			t.Fatalf("%s: sites %v, scan oracle %v", arm.name, got.Sites, wantSites)
		}
		if got.Response != wantResp {
			t.Fatalf("%s: response %g, scan oracle %g", arm.name, got.Response, wantResp)
		}
	}
	wantSites, wantResp = scanInArrivalOrder(p, d, o, ops)
	got, err := OperatorScheduleUnordered(p, d, o, ops)
	if err != nil {
		t.Fatalf("unordered: %v", err)
	}
	if !reflect.DeepEqual(got.Sites, wantSites) || got.Response != wantResp {
		t.Fatalf("unordered: sites %v response %g, arrival-order scan %v %g",
			got.Sites, got.Response, wantSites, wantResp)
	}
}

func TestPlacementRunsMatchScan(t *testing.T) {
	for _, c := range runCases() {
		t.Run(c.name, func(t *testing.T) {
			checkPlacementAgainstScan(t, c.p, c.d, c.ops)
			sc := new(scratch)
			sites := make([][]int, len(c.ops))
			clones := 0
			for i, op := range c.ops {
				sites[i] = make([]int, len(op.Clones))
				if !op.Rooted() {
					clones += len(op.Clones)
				}
			}
			rec := obs.NewMetrics()
			if _, err := sc.operatorSchedule(context.Background(), c.p, c.d, ov(0.5), c.ops, sites, true, rec, 0); err != nil {
				t.Fatal(err)
			}
			if len(sc.list) != c.runs {
				t.Fatalf("L holds %d runs, want %d", len(sc.list), c.runs)
			}
			// The counters count clones, whatever L's length.
			if got := rec.Snapshot().Counters["sched.clones_floating"]; got != int64(clones) {
				t.Fatalf("sched.clones_floating = %d, want %d", got, clones)
			}
		})
	}
}

// The cost model's own runs, at the widths the services use and at the
// two degenerate ones: every operator of a seeded plan with its CG_f
// degree, two more at degree = P, and one rooted at random sites, held
// to the scan and — event for event — to the clone-by-clone index.
// own-picks is the shape where a run's early picks stay ahead of its
// later ones, so its ban-hit counts include the run's own sites.
func TestPlacementRunsMatchCloneIndex(t *testing.T) {
	for _, p := range []int{1, 2, 64, 128, 300} {
		t.Run(fmt.Sprintf("ea1/P=%d", p), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(p)))
			ops := ea1Ops(int64(p), 12, p)
			m := costmodel.Default()
			for i := 0; i < 2; i++ {
				scan := costmodel.OpSpec{Kind: costmodel.Scan, InTuples: 100_000 * (i + 1), NetOut: true}
				ops = append(ops, &Op{ID: 1000 + i, Clones: m.Clones(m.Cost(scan), p)})
			}
			rooted := ops[len(ops)/2]
			rooted.Home = r.Perm(p)[:len(rooted.Clones)]
			checkPlacementAgainstScan(t, p, resource.Dims, ops)
		})
	}
	t.Run("own-picks", func(t *testing.T) {
		checkPlacementAgainstScan(t, 8, 2, ownPicksOps())
	})
}

// Fuzz inputs are bytes so that components come from a small alphabet
// and equal lengths are the common case, not a measure-zero one:
//
//	[p-1, d-1] then per operator [id, degree-1, flags, degree·d components]
//
// p ≤ 16, d ≤ 3, components 0..7, flags bit 0 roots the operator at
// sites start, start+1, … (mod p) with start = flags>>1. An operator
// whose ID repeats an earlier one, or whose bytes run out, ends the
// input.
func decodePlacement(data []byte) (p, d int, ops []*Op) {
	if len(data) < 2 {
		return 0, 0, nil
	}
	p, d = int(data[0]%16)+1, int(data[1]%3)+1
	data = data[2:]
	ids := map[int]bool{}
	for len(data) >= 3 && len(ops) < 12 {
		id, n, flags := int(data[0]), int(data[1])%p+1, int(data[2])
		data = data[3:]
		if ids[id] || len(data) < n*d {
			break
		}
		ids[id] = true
		op := &Op{ID: id, Clones: make([]vector.Vector, n)}
		for k := range op.Clones {
			w := vector.New(d)
			for j := range w {
				w[j] = float64(data[k*d+j] % 8)
			}
			op.Clones[k] = w
		}
		data = data[n*d:]
		if flags&1 == 1 {
			op.Home = make([]int, n)
			for k := range op.Home {
				op.Home[k] = (flags>>1 + k) % p
			}
		}
		ops = append(ops, op)
	}
	return p, d, ops
}

// encodePlacement is decodePlacement's inverse over what it can express;
// a rooted operator's homes are re-based at Home[0].
func encodePlacement(p, d int, ops []*Op) []byte {
	data := []byte{byte(p - 1), byte(d - 1)}
	for _, op := range ops {
		flags := 0
		if op.Rooted() {
			flags = op.Home[0]<<1 | 1
		}
		data = append(data, byte(op.ID), byte(len(op.Clones)-1), byte(flags))
		for _, w := range op.Clones {
			for _, x := range w {
				data = append(data, byte(x))
			}
		}
	}
	return data
}

func FuzzPlacementMatchesScan(f *testing.F) {
	for _, c := range runCases() {
		f.Add(encodePlacement(c.p, c.d, c.ops))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, d, ops := decodePlacement(data)
		if len(ops) == 0 {
			return
		}
		checkPlacementAgainstScan(t, p, d, ops)
	})
}

// The seeds must survive the byte encoding, or the fuzzer starts from
// something other than the cases above.
func TestPlacementSeedsRoundTrip(t *testing.T) {
	for _, c := range runCases() {
		p, d, ops := decodePlacement(encodePlacement(c.p, c.d, c.ops))
		if p != c.p || d != c.d || !reflect.DeepEqual(ops, c.ops) {
			t.Fatalf("%s: decoded to p=%d d=%d %d ops, not the case itself", c.name, p, d, len(ops))
		}
	}
}
