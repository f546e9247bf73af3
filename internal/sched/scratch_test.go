package sched

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mdrs/internal/costmodel"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
	"mdrs/internal/vector"
)

// randomTree expands a seeded random plan of the given join count.
func randomTree(seed int64, joins int) *plan.TaskTree {
	p := query.MustRandom(rand.New(rand.NewSource(seed)), query.DefaultGenConfig(joins))
	return plan.MustNewTaskTree(plan.MustExpand(p))
}

// scratchCase is one scheduling call of the reuse tests. Consecutive
// cases change the site count, the overlap and the tree size in both
// directions, so a scratch that carried anything over between calls —
// a site's load, a ban row, a home, a too-short slab — would show.
type scratchCase struct {
	ts    TreeScheduler
	trees []*plan.TaskTree
}

func scratchCases() []scratchCase {
	memo := costmodel.NewCache(costmodel.Default())
	mk := func(p int, eps float64, seeds []int64, joins int) scratchCase {
		ts := testScheduler(p, eps, 0.7)
		ts.Cache = memo
		c := scratchCase{ts: ts}
		for _, seed := range seeds {
			c.trees = append(c.trees, randomTree(seed, joins))
		}
		return c
	}
	return []scratchCase{
		mk(16, 0.5, []int64{1}, 6),
		mk(128, 0.5, []int64{2}, 30),
		mk(128, 0.9, []int64{2}, 30),
		mk(8, 0.9, []int64{3}, 3),
		mk(64, 0.1, []int64{4, 5, 6}, 12),
		mk(64, 0.1, []int64{7}, 1),
		mk(300, 0.5, []int64{8, 8}, 20),
		mk(16, 0.5, []int64{1}, 6),
	}
}

// run schedules the case on sc, or through the public entry points —
// a TreeSchedule for one tree, a batch for several — and their pool
// when sc is nil, and returns the schedule's encoding.
func (c scratchCase) run(sc *scratch) ([]byte, error) {
	var s *Schedule
	var err error
	switch {
	case sc != nil:
		s, err = c.ts.scheduleBatch(context.Background(), sc, c.trees)
	case len(c.trees) == 1:
		s, err = c.ts.Schedule(c.trees[0])
	default:
		s, err = c.ts.ScheduleBatch(c.trees)
	}
	if err != nil {
		return nil, err
	}
	return EncodeJSON(s)
}

// freshBytes is every case's encoding when scheduled on a scratch of
// its own.
func freshBytes(t *testing.T, cases []scratchCase) [][]byte {
	t.Helper()
	want := make([][]byte, len(cases))
	for i, c := range cases {
		var err error
		if want[i], err = c.run(new(scratch)); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// TestScratchReuseIdentical schedules every case on one scratch, twice
// over, and requires the bytes a fresh scratch gives for each.
func TestScratchReuseIdentical(t *testing.T) {
	cases := scratchCases()
	want := freshBytes(t, cases)
	sc := new(scratch)
	for round := 0; round < 2; round++ {
		for i, c := range cases {
			if got, err := c.run(sc); err != nil || !bytes.Equal(got, want[i]) {
				t.Fatalf("round %d case %d: schedule on a reused scratch differs from a fresh one (error %v)", round, i, err)
			}
		}
	}
}

// TestPooledScratchConcurrent runs the cases through the public entry
// points from 8 goroutines at once, each starting at a different case,
// so that pooled scratches move between goroutines and shapes.
func TestPooledScratchConcurrent(t *testing.T) {
	cases := scratchCases()
	want := freshBytes(t, cases)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3*len(cases); k++ {
				i := (g + k) % len(cases)
				if got, err := cases[i].run(nil); err != nil || !bytes.Equal(got, want[i]) {
					t.Errorf("goroutine %d case %d: concurrent schedule differs (error %v)", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWarmScheduleAllocs gates what one TreeSchedule allocates once the
// pooled scratch and the cost-model memo are warm: the schedule it
// returns — three slabs a phase plus the phase list — and the task
// tree's validation and phase split, not a share of the clones or
// sites. The ceiling is about 1.3 times the count at the time of
// writing (90); with a scratch and a site system per call it was 5,001.
func TestWarmScheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratches under the race detector")
	}
	tt := randomTree(1, 20)
	ts := testScheduler(128, 0.5, 0.7)
	ts.Cache = costmodel.NewCache(ts.Model)
	run := func() {
		if _, err := ts.Schedule(tt); err != nil {
			t.Fatal(err)
		}
	}
	run()
	allocs := testing.AllocsPerRun(50, run)
	t.Logf("warm allocs/schedule = %.0f", allocs)
	if allocs > 120 {
		t.Fatalf("warm TreeSchedule allocates %.0f times, want <= 120", allocs)
	}
}

// TestOperatorScheduleAllocs gates the public OperatorSchedule path on
// the EA1 set: what it allocates is slabs, so the count does not grow
// with P. With a clone list per site it was 785 at P = 128 and 2,065 at
// P = 512.
func TestOperatorScheduleAllocs(t *testing.T) {
	allocs := func(p int) float64 {
		ops := ea1Ops(7, 20, p)
		return testing.AllocsPerRun(20, func() {
			if _, err := OperatorSchedule(p, resource.Dims, ov(0.5), ops); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(128), allocs(512)
	t.Logf("allocs/OperatorSchedule: P=128 %.0f, P=512 %.0f", small, large)
	if small != large {
		t.Fatalf("OperatorSchedule allocates %.0f times at P = 128 and %.0f at P = 512, want equal", small, large)
	}
}

// TestOperatorScheduleSystemNotAliased checks that the loaded system a
// public OperatorSchedule call returns belongs to its caller: later
// calls of either kind, with the same shape, leave it as it was.
func TestOperatorScheduleSystemNotAliased(t *testing.T) {
	ov := resource.MustOverlap(0.5)
	first, err := OperatorSchedule(16, 3, ov, placementOps(1, 12, 8))
	if err != nil {
		t.Fatal(err)
	}
	before := make([]vector.Vector, first.System.P())
	for j := range before {
		before[j] = first.System.Load(j)
	}

	second, err := OperatorSchedule(16, 3, ov, placementOps(2, 20, 8))
	if err != nil {
		t.Fatal(err)
	}
	if second.System == first.System {
		t.Fatal("two OperatorSchedule calls returned the same System")
	}
	ts := testScheduler(16, 0.5, 0.7)
	if _, err := ts.Schedule(randomTree(3, 8)); err != nil {
		t.Fatal(err)
	}

	for j, was := range before {
		if got := first.System.Load(j); !slices.Equal(got, was) {
			t.Fatalf("site %d of the first result changed under later calls: load %v, was %v", j, got, was)
		}
	}
	if got := first.System.MaxTSite(); got != first.Response {
		t.Fatalf("first result's system now gives response %g, was %g", got, first.Response)
	}
}
