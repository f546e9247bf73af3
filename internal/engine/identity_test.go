package engine

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"mdrs/internal/costmodel"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
)

// chainPlan builds a left-deep chain over the given leaf sizes. Mixing
// ascending and descending sizes flips the carrier side join by join,
// so both the presence-probe (outer carrier) and match-probe (inner
// carrier) arms — and thus both the bitmap and ranked-CSR table layouts —
// execute.
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
// shape × system size × Parallel mode × skew setting, the flat data
// path's Report must be byte-identical to the reference executor's —
// same cardinalities, same per-operator measured times (the meters see
// identical float operations in identical order), same phase responses,
// and identical JSON encodings.
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

						ref := reference(testEngine(parallel))
						repRef, err := ref.Run(ds, s)
						if err != nil {
							t.Fatal(err)
						}
						repFlat, err := testEngine(parallel).Run(ds, s)
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
					})
				}
			}
		}
	}
}

// TestReportByteIdentityMaterialized covers the Store arm: a
// materialized chain must also produce byte-identical reports.
func TestReportByteIdentityMaterialized(t *testing.T) {
	p := chainPlan([]int{5000, 2000, 6000})
	ds := MustGenerate(p, 29)
	ot, err := plan.ExpandMaterialized(p)
	if err != nil {
		t.Fatal(err)
	}
	s := scheduleForTree(t, plan.MustNewTaskTree(ot), 6)
	for _, parallel := range []bool{false, true} {
		ref := reference(testEngine(parallel))
		repRef, err := ref.Run(ds, s)
		if err != nil {
			t.Fatal(err)
		}
		repFlat, err := testEngine(parallel).Run(ds, s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(repRef, repFlat) {
			t.Fatalf("materialized reports diverge (parallel=%v):\nref:  %+v\nflat: %+v",
				parallel, repRef, repFlat)
		}
	}
}

// TestFlatRunsAreRepeatable pins arena recycling correctness: back-to-
// back flat runs over the same dataset (reusing pooled arenas whose
// buffers hold stale bytes) must keep producing the same Report.
func TestFlatRunsAreRepeatable(t *testing.T) {
	p := chainPlan([]int{5000, 2000, 7000, 1200})
	ds := MustGenerate(p, 5)
	s := scheduleFor(t, p, 8)
	first, err := testEngine(false).Run(ds, s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		rep, err := testEngine(i%2 == 1).Run(ds, s)
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

// FuzzFlatMatchesReference is the identity corpus as a generator: over
// random plan shapes (1–6 joins), leaf sizes, site counts, skews and
// Parallel modes the flat data path and the reference executor must
// return equal Reports, or fail with the same error.
func FuzzFlatMatchesReference(f *testing.F) {
	// The four shapes of identityPlans, chain8 cut to the six-join
	// ceiling; the first argument is joins-1.
	f.Add(uint8(2), []byte{100, 37, 150, 55}, []byte{0}, uint8(3), uint8(0), false, int64(71))
	f.Add(uint8(5), []byte{125, 50, 175, 30, 160, 70, 225}, []byte{0}, uint8(7), uint8(3), true, int64(71))
	f.Add(uint8(2), []byte{100, 37, 87, 22}, []byte{0, 1, 0}, uint8(7), uint8(0), true, int64(71))
	f.Add(uint8(1), []byte{25, 150, 50}, []byte{255}, uint8(3), uint8(3), false, int64(71))
	f.Fuzz(func(t *testing.T, joins uint8, sizes, merges []byte, sites, skew uint8, parallel bool, seed int64) {
		p := fuzzPlan(1+int(joins)%6, sizes, merges)
		opts := GenOptions{Seed: seed}
		if s := skew % 8; s > 0 {
			opts.SkewS = 1 + float64(s)/10
		}
		ds, err := GenerateOpts(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		s := scheduleFor(t, p, 1+int(sites)%16)

		repRef, errRef := reference(testEngine(parallel)).Run(ds, s)
		repFlat, errFlat := testEngine(parallel).Run(ds, s)
		if errRef != nil || errFlat != nil {
			if errRef == nil || errFlat == nil || errRef.Error() != errFlat.Error() {
				t.Fatalf("errors diverge:\nref:  %v\nflat: %v", errRef, errFlat)
			}
			return
		}
		if !reflect.DeepEqual(repRef, repFlat) {
			t.Fatalf("reports diverge:\nref:  %+v\nflat: %+v", repRef, repFlat)
		}
	})
}
