package engine

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/sched"
)

// degreeSchedule hand-builds a one-phase schedule placing every
// operator of the expanded plan at the given degree — degrees far above
// what the tree scheduler would ever pick, to hammer the clone driver.
// Operators land in ID order (a valid pipeline topological order).
func degreeSchedule(t *testing.T, p *query.PlanNode, degree int) *sched.Schedule {
	t.Helper()
	ot := plan.MustExpand(p)
	plan.MustNewTaskTree(ot) // back-fills each operator's Task pointer
	sites := make([]int, degree)
	for i := range sites {
		sites[i] = i
	}
	ph := &sched.PhaseSchedule{}
	for _, op := range ot.Ops {
		ph.Placements = append(ph.Placements,
			&sched.OpPlacement{Op: op, Degree: degree, Sites: sites})
	}
	return &sched.Schedule{P: degree, Phases: []*sched.PhaseSchedule{ph}}
}

// TestDegree512JoinMatchesReference runs whole joins at degree 512 over
// a key domain of 10⁵ — partitions of some two hundred tuples, and one
// bitmap of 12.5 KB for the join (filled by the build under the outer
// carrier, by the probe under the inner one) — and checks the flat path
// still mirrors the reference executor exactly.
func TestDegree512JoinMatchesReference(t *testing.T) {
	const degree = 512
	for name, p := range map[string]*query.PlanNode{
		"outer carrier": join(leaf("A", 101000), leaf("B", 100000)),
		"inner carrier": join(leaf("A", 100000), leaf("B", 101000)),
	} {
		ds := MustGenerate(p, 11)
		s := degreeSchedule(t, p, degree)

		ref := reference(testEngine())
		repRef, err := ref.Run(ds, s)
		if err != nil {
			t.Fatal(err)
		}
		repFlat, err := testEngine().Run(ds, s)
		if err != nil {
			t.Fatal(err)
		}
		if repRef.ResultTuples != 101000 || repFlat.ResultTuples != repRef.ResultTuples {
			t.Fatalf("%s: cardinality mismatch: ref %d, flat %d", name, repRef.ResultTuples, repFlat.ResultTuples)
		}
		if !reflect.DeepEqual(repRef, repFlat) {
			t.Fatalf("%s: reports diverge at degree %d:\nref:  %+v\nflat: %+v", name, degree, repRef, repFlat)
		}
	}
}

// TestCarrierKeyMissIsACardinalityError plants a carrier key that the
// join's bitmap lacks, on TestDegree512JoinMatchesReference's joins:
// the key domain grows by one and one key v of the smaller operand
// moves to the new last key, so the one carrier row whose key is v finds
// no match. The run must fail with the join's cardinality error, word
// for word as the reference executor does, and give every buffer back
// to the arena, so a clean run straight after allocates nothing.
func TestCarrierKeyMissIsACardinalityError(t *testing.T) {
	const degree = 512
	for name, p := range map[string]*query.PlanNode{
		"outer carrier": join(leaf("A", 101000), leaf("B", 100000)),
		"inner carrier": join(leaf("A", 100000), leaf("B", 101000)),
	} {
		ds := MustGenerate(p, 11)
		s := degreeSchedule(t, p, degree)
		warmArena(t, ds, s)
		carrier, small := p.Outer, p.Inner
		if !OuterIsCarrier(p) {
			carrier, small = small, carrier
		}
		ci, err := ds.LeafIndex(carrier)
		if err != nil {
			t.Fatal(err)
		}
		si, err := ds.LeafIndex(small)
		if err != nil {
			t.Fatal(err)
		}
		jc := ds.joins[p]
		count := make([]int, jc.domain)
		for _, key := range jc.cols[ci] {
			count[key]++
		}
		v := int32(slices.Index(count, 1)) // a key exactly one carrier row holds
		col := jc.cols[si]
		at := slices.Index(col, v)
		col[at] = int32(jc.domain)
		jc.domain++
		_, errRef := reference(testEngine()).Run(ds, s)
		_, err = runAllocs(testEngine(), ds, s)
		jc.domain--
		col[at] = v
		want := fmt.Sprintf("produced %d tuples, expected %d", carrier.Tuples-1, carrier.Tuples)
		if err == nil || !strings.Contains(err.Error(), want) || errRef == nil || err.Error() != errRef.Error() {
			t.Fatalf("%s: run with carrier key %d missing gave %v (reference %v), want the join's error %q",
				name, v, err, errRef, want)
		}
		if n, err := runAllocs(testEngine(), ds, s); err != nil || n != 0 {
			t.Fatalf("%s: clean run after a failed one allocated %d arena buffers (error %v), want 0", name, n, err)
		}
	}
}
