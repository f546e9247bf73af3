package engine

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
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
// for word as the reference executor does, and a clean run straight
// after must allocate exactly as often as a warm run.
func TestCarrierKeyMissIsACardinalityError(t *testing.T) {
	const degree = 512
	for name, p := range map[string]*query.PlanNode{
		"outer carrier": join(leaf("A", 101000), leaf("B", 100000)),
		"inner carrier": join(leaf("A", 100000), leaf("B", 101000)),
	} {
		ds := MustGenerate(p, 11)
		s := degreeSchedule(t, p, degree)
		warm := warmMallocs(t, ds, s)
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
		_, err = testEngine().Run(ds, s)
		jc.domain--
		col[at] = v
		want := fmt.Sprintf("produced %d tuples, expected %d", carrier.Tuples-1, carrier.Tuples)
		if err == nil || !strings.Contains(err.Error(), want) || errRef == nil || err.Error() != errRef.Error() {
			t.Fatalf("%s: run with carrier key %d missing gave %v (reference %v), want the join's error %q",
				name, v, err, errRef, want)
		}
		checkCleanRun(t, ds, s, warm)
	}
}

// TestConcurrentRunsMatchSequential runs three plans of different site
// counts and key domains from four goroutines at once, interleaved, over
// datasets the runs share, so that recycled run states pass from plan to
// plan and grow on the way: every Report must equal the plan's
// sequential run. make race runs it under the race detector.
func TestConcurrentRunsMatchSequential(t *testing.T) {
	type job struct {
		ds   *Dataset
		s    *sched.Schedule
		want *Report
	}
	var jobs []job
	for _, c := range []struct {
		plan  *query.PlanNode
		sites int
	}{
		{join(leaf("A", 3000), leaf("B", 800)), 4},
		{chainPlan([]int{5000, 2000, 7000, 1200, 6400, 2800}), 8},
		{join(join(leaf("A", 4000), leaf("B", 1500)), join(leaf("C", 3500), leaf("D", 9000))), 16},
	} {
		ds := MustGenerate(c.plan, 3)
		s := scheduleFor(t, c.plan, c.sites)
		want, err := testEngine().Run(ds, s)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{ds, s, want})
	}
	const goroutines, runs = 4, 30
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				j := jobs[(g+i)%len(jobs)]
				rep, err := testEngine().Run(j.ds, j.s)
				if err != nil || !reflect.DeepEqual(rep, j.want) {
					t.Errorf("goroutine %d run %d (error %v):\ngot:  %+v\nwant: %+v", g, i, err, rep, j.want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
