package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mdrs/internal/costmodel"
	"mdrs/internal/optimizer"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
)

// chainPlan builds a left-deep chain over the given leaf sizes. Mixing
// ascending and descending sizes flips the carrier side join by join,
// so both arms execute: the build fills the bitmap (outer carrier)
// and the probe fills it (inner carrier).
func chainPlan(sizes []int) *query.PlanNode {
	p := leaf("L0", sizes[0])
	for i := 1; i < len(sizes); i++ {
		p = join(p, leaf(fmt.Sprintf("L%d", i), sizes[i]))
	}
	return p
}

// identityPlans is the golden corpus's plan shapes: chains of 3 and 8
// joins with alternating carrier sides, a bushy plan, and a right-deep
// plan whose top join carries the inner side.
func identityPlans() map[string]*query.PlanNode {
	return map[string]*query.PlanNode{
		"chain3": chainPlan([]int{4000, 1500, 6000, 2200}),
		"chain8": chainPlan([]int{5000, 2000, 7000, 1200, 6400, 2800, 9000, 3300, 7500}),
		"bushy": join(
			join(leaf("A", 4000), leaf("B", 1500)),
			join(leaf("C", 3500), leaf("D", 900)),
		),
		"rightdeep": join(leaf("A", 1000), join(leaf("B", 6000), leaf("C", 2000))),
	}
}

func scheduleForTree(t *testing.T, tt *plan.TaskTree, sites int) *sched.Schedule {
	t.Helper()
	s, err := sched.TreeScheduler{
		Model:   costmodel.Default(),
		Overlap: resource.MustOverlap(0.5),
		P:       sites,
		F:       0.7,
	}.Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestReportByteIdentity is the golden-Report corpus: for every plan
// shape × system size × skew setting, the flat data path's Report must
// be byte-identical to the reference executor's — same cardinalities,
// same per-operator measured times (the meters see identical float
// operations in identical order), same phase responses, and identical
// JSON encodings — and the metering oracle's Report must equal both.
// The par dimension sets the deprecated, ignored
// Engine.Parallel on the flat side, which the frozen bench/ still
// assigns: setting it must change nothing. It goes with the field
// (ROADMAP 1a).
func TestReportByteIdentity(t *testing.T) {
	for name, p := range identityPlans() {
		for _, sites := range []int{4, 8} {
			for _, parallel := range []bool{false, true} {
				for _, skew := range []float64{0, 1.3} {
					t.Run(fmt.Sprintf("%s/P%d/par=%v/skew=%g", name, sites, parallel, skew), func(t *testing.T) {
						ds, err := GenerateOpts(p, GenOptions{Seed: 71, SkewS: skew})
						if err != nil {
							t.Fatal(err)
						}
						s := scheduleFor(t, p, sites)

						repRef, err := reference(testEngine()).Run(ds, s)
						if err != nil {
							t.Fatal(err)
						}
						flat := testEngine()
						flat.Parallel = parallel
						repFlat, err := flat.Run(ds, s)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(repRef, repFlat) {
							t.Fatalf("reports diverge:\nref:  %+v\nflat: %+v", repRef, repFlat)
						}
						bRef, err := json.Marshal(repRef)
						if err != nil {
							t.Fatal(err)
						}
						bFlat, err := json.Marshal(repFlat)
						if err != nil {
							t.Fatal(err)
						}
						if string(bRef) != string(bFlat) {
							t.Fatalf("JSON encodings diverge:\nref:  %s\nflat: %s", bRef, bFlat)
						}
						checkOracle(t, ds, s, repRef)
					})
				}
			}
		}
	}
}

// TestOptimizerPlansMatchReference holds the semi-join argument on the
// plans the system runs: the plan search's winners over catalogs shaped
// like query_e2e's (5 to 8 relations, sizes scaled down to 1,000–5,000
// tuples), each scheduled at P ∈ {4, 16} over uniform and Zipf keys,
// must give the reference executor's Report, and so must the metering
// oracle. The corpus must hold
// inner-carrier joins, one of them over two join subtrees, so that the
// probe side filling the sets is itself an intermediate stream.
func TestOptimizerPlansMatchReference(t *testing.T) {
	search := optimizer.Search{Model: costmodel.Default(), Overlap: resource.MustOverlap(0.5), P: 16, F: 0.7}
	r := rand.New(rand.NewSource(1))
	inner, bushyInner := 0, 0
	var count func(n *query.PlanNode)
	count = func(n *query.PlanNode) {
		if n.IsLeaf() {
			return
		}
		if !OuterIsCarrier(n) {
			inner++
			if !n.Outer.IsLeaf() && !n.Inner.IsLeaf() {
				bushyInner++
			}
		}
		count(n.Outer)
		count(n.Inner)
	}
	for i := 0; i < 8; i++ {
		rels, err := optimizer.RandomRelations(r, 5+i%4, 1_000, 5_000)
		if err != nil {
			t.Fatal(err)
		}
		res, err := search.Best(rand.New(rand.NewSource(int64(i))), rels)
		if err != nil {
			t.Fatal(err)
		}
		p := res.Best.Plan
		count(p)
		for _, sites := range []int{4, 16} {
			for _, skew := range []float64{0, 1.3} {
				ds, err := GenerateOpts(p, GenOptions{Seed: int64(i), SkewS: skew})
				if err != nil {
					t.Fatal(err)
				}
				s := scheduleFor(t, p, sites)
				repRef, err := reference(testEngine()).Run(ds, s)
				if err != nil {
					t.Fatal(err)
				}
				repFlat, err := testEngine().Run(ds, s)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(repRef, repFlat) {
					t.Fatalf("catalog %d P%d skew=%g: reports diverge:\nref:  %+v\nflat: %+v", i, sites, skew, repRef, repFlat)
				}
				checkOracle(t, ds, s, repRef)
			}
		}
	}
	if inner == 0 || bushyInner == 0 {
		t.Fatalf("corpus holds %d inner-carrier joins, %d of them over two joins; want both > 0", inner, bushyInner)
	}
}

// TestReportByteIdentityMaterialized covers the Store arm: a
// materialized chain must also produce byte-identical reports, and the
// metering oracle the same one.
func TestReportByteIdentityMaterialized(t *testing.T) {
	p := chainPlan([]int{5000, 2000, 6000})
	ds := MustGenerate(p, 29)
	ot, err := plan.ExpandMaterialized(p)
	if err != nil {
		t.Fatal(err)
	}
	s := scheduleForTree(t, plan.MustNewTaskTree(ot), 6)
	repRef, err := reference(testEngine()).Run(ds, s)
	if err != nil {
		t.Fatal(err)
	}
	repFlat, err := testEngine().Run(ds, s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repRef, repFlat) {
		t.Fatalf("materialized reports diverge:\nref:  %+v\nflat: %+v", repRef, repFlat)
	}
	checkOracle(t, ds, s, repRef)
}

// TestFlatRunsAreRepeatable pins run-state recycling correctness:
// back-to-back flat runs over the same dataset (reusing recycled run
// states whose buffers hold stale bytes) must keep producing the same
// Report.
func TestFlatRunsAreRepeatable(t *testing.T) {
	p := chainPlan([]int{5000, 2000, 7000, 1200})
	ds := MustGenerate(p, 5)
	s := scheduleFor(t, p, 8)
	first, err := testEngine().Run(ds, s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		rep, err := testEngine().Run(ds, s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, rep) {
			t.Fatalf("run %d diverged from the first:\nfirst: %+v\ngot:   %+v", i, first, rep)
		}
	}
}

// fuzzPlan decodes a join tree from fuzz bytes: joins+1 leaves sized
// 1+40·sizes[i] (cycled), merged pairwise until one tree remains, byte j
// of merges (cycled) naming the adjacent pair the j-th join combines.
// Always merging pair 0 gives a left-deep chain, always the last pair a
// right-deep one, anything else a bushy plan.
func fuzzPlan(joins int, sizes, merges []byte) *query.PlanNode {
	at := func(b []byte, i int) int {
		if len(b) == 0 {
			return 0
		}
		return int(b[i%len(b)])
	}
	forest := make([]*query.PlanNode, joins+1)
	for i := range forest {
		forest[i] = leaf(fmt.Sprintf("L%d", i), 1+40*at(sizes, i))
	}
	for j := 0; len(forest) > 1; j++ {
		i := at(merges, j) % (len(forest) - 1)
		forest[i] = join(forest[i], forest[i+1])
		forest = append(forest[:i+1], forest[i+2:]...)
	}
	return forest[0]
}

// carrierLeaf returns the leaf whose rows a subtree's output carries.
func carrierLeaf(n *query.PlanNode) *query.PlanNode {
	for !n.IsLeaf() {
		if OuterIsCarrier(n) {
			n = n.Outer
		} else {
			n = n.Inner
		}
	}
	return n
}

// corrupt plants one fault, picked by the low two bits of fault, in the
// key columns of one join of ds, picked with the position by the rest:
// 0 plants none; 1 repeats a key of the smaller operand; 2 grows the key
// domain by one and moves a smaller-side key to the new last key, so
// the carrier rows holding the old key miss; 3 moves a carrier key
// outside the domain. It returns the function that takes the fault out
// again.
func corrupt(t *testing.T, ds *Dataset, fault uint8) (restore func()) {
	t.Helper()
	kind, at := fault&3, int(fault>>2)
	if kind == 0 {
		return func() {}
	}
	var joins []*query.PlanNode
	var walk func(n *query.PlanNode)
	walk = func(n *query.PlanNode) {
		if !n.IsLeaf() {
			joins = append(joins, n)
			walk(n.Outer)
			walk(n.Inner)
		}
	}
	walk(ds.Plan)
	j := joins[at%len(joins)]
	carrier, small := j.Outer, j.Inner
	if !OuterIsCarrier(j) {
		carrier, small = small, carrier
	}
	side := small
	if kind == 3 {
		side = carrier
	}
	li, err := ds.LeafIndex(carrierLeaf(side))
	if err != nil {
		t.Fatal(err)
	}
	jc := ds.joins[j]
	col := jc.cols[li]
	i := at % len(col)
	w := i // the row the fault writes
	if kind == 1 {
		w = (i + 1) % len(col) // a one-row side repeats nothing
	}
	key, domain := col[w], jc.domain
	restore = func() { col[w], jc.domain = key, domain }
	switch kind {
	case 1:
		col[w] = col[i]
	case 2:
		col[w] = int32(jc.domain)
		jc.domain++
	case 3:
		col[w] = int32(jc.domain) + int32(at)
		if at%2 == 1 {
			col[w] = -int32(at)
		}
	}
	return restore
}

// FuzzFlatMatchesReference is the identity corpus as a generator: over
// random plan shapes (1–6 joins), leaf sizes, site counts, skews and
// expansions, with or without a fault planted in the data, the flat
// data path must agree with the reference executor. The skew argument's
// low three bits pick the Zipf exponent and its bit 3 the materialized
// expansion, whose Store operators pass their input's rows on; fault
// picks what corrupt plants. The contract:
//   - when the reference fails, the flat path fails too, with the same
//     error unless the fault breaks the smaller side's distinct keys or
//     the domain (a carrier miss inside the domain fails both on the
//     join's cardinality check, word for word);
//   - when only the flat path fails, its error is a *DuplicateKeyError:
//     the semi-join's precondition, stricter than the hash join by
//     design;
//   - when both pass, the Reports are equal, and so is the metering
//     oracle's;
//   - once the fault is taken out again, a flat run on the run state
//     the faulty run handed back gives the reference's Report on the
//     clean data.
func FuzzFlatMatchesReference(f *testing.F) {
	// The four shapes of identityPlans, chain8 cut to the six-join
	// ceiling; the first argument is joins-1. Then one seed per fault.
	f.Add(uint8(2), []byte{100, 37, 150, 55}, []byte{0}, uint8(3), uint8(0), int64(71), uint8(0))
	f.Add(uint8(5), []byte{125, 50, 175, 30, 160, 70, 225}, []byte{0}, uint8(7), uint8(3), int64(71), uint8(0))
	f.Add(uint8(2), []byte{100, 37, 87, 22}, []byte{0, 1, 0}, uint8(7), uint8(0), int64(71), uint8(0))
	f.Add(uint8(1), []byte{25, 150, 50}, []byte{255}, uint8(3), uint8(3), int64(71), uint8(0))
	f.Add(uint8(2), []byte{100, 37, 150, 55}, []byte{0}, uint8(3), uint8(0), int64(71), uint8(1))
	f.Add(uint8(2), []byte{100, 37, 87, 22}, []byte{0, 1, 0}, uint8(7), uint8(0), int64(71), uint8(6))
	f.Add(uint8(1), []byte{25, 150, 50}, []byte{255}, uint8(3), uint8(3), int64(71), uint8(11))
	f.Fuzz(func(t *testing.T, joins uint8, sizes, merges []byte, sites, skew uint8, seed int64, fault uint8) {
		p := fuzzPlan(1+int(joins)%6, sizes, merges)
		opts := GenOptions{Seed: seed}
		if s := skew % 8; s > 0 {
			opts.SkewS = 1 + float64(s)/10
		}
		ds, err := GenerateOpts(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		expand := plan.Expand
		if skew&8 != 0 {
			expand = plan.ExpandMaterialized
		}
		ot, err := expand(p)
		if err != nil {
			t.Fatal(err)
		}
		s := scheduleForTree(t, plan.MustNewTaskTree(ot), 1+int(sites)%16)

		kind := fault & 3
		var clean *Report
		if kind != 0 {
			if clean, err = reference(testEngine()).Run(ds, s); err != nil {
				t.Fatalf("the reference fails on clean data: %v", err)
			}
		}
		restore := corrupt(t, ds, fault)
		repRef, errRef := reference(testEngine()).Run(ds, s)
		repFlat, errFlat := testEngine().Run(ds, s)
		switch {
		case errRef != nil:
			if errFlat == nil {
				t.Fatalf("the reference fails with %v, the flat path passes", errRef)
			}
			if (kind == 0 || kind == 2) && errRef.Error() != errFlat.Error() {
				t.Fatalf("errors diverge:\nref:  %v\nflat: %v", errRef, errFlat)
			}
		case errFlat != nil:
			var dup *DuplicateKeyError
			if !errors.As(errFlat, &dup) {
				t.Fatalf("only the flat path fails, with %v; want a DuplicateKeyError", errFlat)
			}
		default:
			if !reflect.DeepEqual(repRef, repFlat) {
				t.Fatalf("reports diverge:\nref:  %+v\nflat: %+v", repRef, repFlat)
			}
			checkOracle(t, ds, s, repRef)
		}
		restore()
		if clean != nil {
			rep, err := testEngine().Run(ds, s)
			if err != nil || !reflect.DeepEqual(rep, clean) {
				t.Fatalf("clean re-run after the fault diverges (error %v):\nref:  %+v\nflat: %+v", err, clean, rep)
			}
		}
	})
}
