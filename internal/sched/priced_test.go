package sched

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mdrs/internal/costmodel"
	"mdrs/internal/plan"
	"mdrs/internal/resource"
)

// randomPricing draws a scheduler and a tree over the configuration
// space the placement reads: P, ε, f, MaxDegree, phase policy and, for
// half the trials, declustered scan homes.
func randomPricing(t *testing.T, r *rand.Rand) (TreeScheduler, *plan.TaskTree, string) {
	t.Helper()
	joins := 1 + r.Intn(24)
	ts := TreeScheduler{
		Model:     costmodel.Default(),
		Overlap:   resource.MustOverlap(r.Float64()),
		P:         1 + r.Intn(140),
		F:         0.3 + 0.9*r.Float64(),
		MaxDegree: []int{0, 1, 4}[r.Intn(3)],
		Policy:    []plan.PhasePolicy{plan.MinShelf, plan.EarliestShelf}[r.Intn(2)],
	}
	tt := randomTree(r.Int63(), joins)
	declustered := r.Intn(2) == 0
	if declustered {
		homes, err := ts.RandomDeclustering(r, tt)
		if err != nil {
			t.Fatal(err)
		}
		ts.Homes = homes
	}
	return ts, tt, fmt.Sprintf("joins=%d P=%d eps=%g f=%g MaxDegree=%d policy=%v declustered=%v",
		joins, ts.P, ts.Overlap.Epsilon, ts.F, ts.MaxDegree, ts.Policy, declustered)
}

// checkPlacedFromRecord requires every placement of s that belongs to
// the tree pr was priced from to carry the record's degree, T^par and
// the EA1 split of its cost, bit for bit.
func checkPlacedFromRecord(t *testing.T, at string, s *Schedule, pr *Priced) {
	t.Helper()
	for _, ph := range s.Phases {
		for _, pl := range ph.Placements {
			e := pr.ops[pl.Op.ID]
			if e.op != pl.Op {
				continue // another batch entry's operator under this ID
			}
			want := SplitWork(pr.ts.Model.Split(e.cost, e.deg))
			if pl.Degree != e.deg || math.Float64bits(pl.TPar) != math.Float64bits(e.tpar) ||
				!sameRuns(pl.Work, want) {
				t.Fatalf("%s: %s placed at degree %d, T^par %g, work %v; record says %d, %g, %v",
					at, pl.Op.Name, pl.Degree, pl.TPar, pl.Work, e.deg, e.tpar, want)
			}
		}
	}
}

// sameRuns compares two run lists bit for bit.
func sameRuns(a, b []WorkRun) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].N != b[i].N || len(a[i].W) != len(b[i].W) {
			return false
		}
		for k := range a[i].W {
			if math.Float64bits(a[i].W[k]) != math.Float64bits(b[i].W[k]) {
				return false
			}
		}
	}
	return true
}

// TestPricedRecordIsWhatIsPlaced prices generated trees into one reused
// record and places them from it: the bound is PhaseBound's, the
// schedule is ScheduleCtx's byte for byte, every placement carries its
// record entry, and the schedule's phases are the record's lists, so
// the phases were derived once.
func TestPricedRecordIsWhatIsPlaced(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	var pr Priced
	for trial := 0; trial < 60; trial++ {
		ts, tt, desc := randomPricing(t, r)
		at := fmt.Sprintf("trial %d: %s", trial, desc)
		bound, err := ts.Price(&pr, tt)
		if err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		if pb, err := ts.PhaseBound(tt); err != nil || math.Float64bits(pb) != math.Float64bits(bound) {
			t.Fatalf("%s: Price bound %g, PhaseBound %g (err %v)", at, bound, pb, err)
		}
		s, err := pr.Schedule(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		want, err := ts.Schedule(tt)
		if err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		if got, want := mustJSON(t, s), mustJSON(t, want); !bytes.Equal(got, want) {
			t.Fatalf("%s: schedule placed from the record differs from ScheduleCtx's", at)
		}
		checkPlacedFromRecord(t, at, s, &pr)
		for i, ph := range s.Phases {
			if len(ph.Tasks) > 0 && &ph.Tasks[0] != &pr.phases[i][0] {
				t.Fatalf("%s: phase %d does not lend the record's task list", at, i)
			}
		}
	}
}

// TestPricedBatchSharedOperators places a batch whose entries share
// operator pointers — one tree at two positions around another, under
// declustered homes — and requires each entry's placements to be its
// own record's, every probe at its own entry's build sites.
func TestPricedBatchSharedOperators(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 20; trial++ {
		ts, a, desc := randomPricing(t, r)
		at := fmt.Sprintf("trial %d: %s", trial, desc)
		b := randomTree(r.Int63(), 1+r.Intn(10))
		s, err := ts.ScheduleBatch([]*plan.TaskTree{a, b, a})
		if err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		var ra, rb Priced
		if _, err := ts.Price(&ra, a); err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		if _, err := ts.Price(&rb, b); err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		// Placements run in (entry, task, operator) order within a phase.
		// The second copy of a is the one a placement of an already-seen
		// operator of a belongs to.
		homes := [2]map[*plan.Operator][]int{{}, {}}
		for _, ph := range s.Phases {
			seen := map[*plan.Operator]bool{}
			for _, pl := range ph.Placements {
				entry := 0
				if seen[pl.Op] {
					entry = 1
				}
				seen[pl.Op] = true
				rec := &ra
				if pl.Op.ID >= len(ra.ops) || ra.ops[pl.Op.ID].op != pl.Op {
					rec, entry = &rb, 0
				}
				e := rec.ops[pl.Op.ID]
				if pl.Degree != e.deg || math.Float64bits(pl.TPar) != math.Float64bits(e.tpar) {
					t.Fatalf("%s: %s placed at degree %d, T^par %g; record says %d, %g",
						at, pl.Op.Name, pl.Degree, pl.TPar, e.deg, e.tpar)
				}
				if rec != &ra {
					continue
				}
				if build := pl.Op.BuildOp; build != nil {
					if home := homes[entry][build]; fmt.Sprint(home) != fmt.Sprint(pl.Sites) {
						t.Fatalf("%s: copy %d of probe %s at %v, its build at %v", at, entry, pl.Op.Name, pl.Sites, home)
					}
				}
				homes[entry][pl.Op] = pl.Sites
			}
		}
	}
}

// TestPricedRecordReuseLeavesSchedulesAlone prices and places tree A,
// then prices and places tree B on the same record while another
// goroutine encodes A's schedule: A's bytes must not change, and under
// the race detector no write of B's pricing may touch what A's schedule
// holds.
func TestPricedRecordReuseLeavesSchedulesAlone(t *testing.T) {
	ts := testScheduler(64, 0.5, 0.7)
	ts.Cache = costmodel.NewCache(ts.Model)
	var pr Priced
	for round, pair := range [][2]*plan.TaskTree{
		{randomTree(1, 6), randomTree(2, 12)},
		{randomTree(3, 12), randomTree(4, 3)},
		{randomTree(5, 1), randomTree(5, 1)},
	} {
		if _, err := ts.Price(&pr, pair[0]); err != nil {
			t.Fatal(err)
		}
		a, err := pr.Schedule(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want := mustJSON(t, a)
		done := make(chan []byte)
		go func() {
			got, _ := EncodeJSON(a)
			done <- got
		}()
		if _, err := ts.Price(&pr, pair[1]); err != nil {
			t.Fatal(err)
		}
		if _, err := pr.Schedule(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := <-done; !bytes.Equal(got, want) {
			t.Fatalf("round %d: A's schedule encoded differently while B was priced", round)
		}
		if got := mustJSON(t, a); !bytes.Equal(got, want) {
			t.Fatalf("round %d: pricing and placing B changed A's schedule", round)
		}
	}
}

// TestPricingProbesMemoOncePerOperator counts cost-memo lookups: one
// priced tree reads each operator's cost exactly once — a build reads
// its probe's for the join's degree and leaves it for the probe — and
// placing from the record reads none.
func TestPricingProbesMemoOncePerOperator(t *testing.T) {
	for _, joins := range []int{0, 1, 5, 20} {
		tt := randomTree(int64(joins)+7, joins)
		ops := 0
		for _, tk := range tt.Tasks {
			ops += len(tk.Ops)
		}
		ts := testScheduler(64, 0.5, 0.7)
		ts.Cache = costmodel.NewCache(ts.Model)
		var pr Priced
		lookups := func() int64 {
			hits, misses := ts.Cache.Stats()
			return hits + misses
		}
		if _, err := ts.Price(&pr, tt); err != nil {
			t.Fatal(err)
		}
		if got := lookups(); got != int64(ops) {
			t.Fatalf("joins=%d: pricing %d operators made %d memo lookups", joins, ops, got)
		}
		if _, err := pr.Schedule(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := lookups(); got != int64(ops) {
			t.Fatalf("joins=%d: placing from the record made %d more memo lookups", joins, got-int64(ops))
		}
		if _, err := ts.Schedule(tt); err != nil {
			t.Fatal(err)
		}
		if got := lookups(); got != 2*int64(ops) {
			t.Fatalf("joins=%d: Schedule made %d memo lookups for %d operators", joins, got-int64(ops), ops)
		}
	}
}

// TestUnpricedRecordRefused covers a record that holds no tree: the zero
// value, and one whose last Price failed.
func TestUnpricedRecordRefused(t *testing.T) {
	var pr Priced
	if _, err := pr.Schedule(context.Background()); err == nil {
		t.Fatal("zero record scheduled")
	}
	ts := testScheduler(8, 0.5, 0.7)
	if _, err := ts.Price(&pr, randomTree(1, 3)); err != nil {
		t.Fatal(err)
	}
	ts.P = 0
	if _, err := ts.Price(&pr, randomTree(1, 3)); err == nil {
		t.Fatal("P = 0 priced")
	}
	if _, err := pr.Schedule(context.Background()); err == nil {
		t.Fatal("record of a failed Price scheduled")
	}
}

// TestForeignBuildRefused hands pricing a tree whose probe names
// another tree's build, which task-tree validation does not look at:
// no phase of this tree prices that build, so PhaseBound refuses the
// tree as Schedule does, though an operator of its own has the build's
// ID.
func TestForeignBuildRefused(t *testing.T) {
	tt, other := randomTree(3, 4), randomTree(3, 4)
	for _, tk := range tt.Tasks {
		for _, op := range tk.Ops {
			if op.BuildOp != nil {
				op.BuildOp = other.Tasks[op.BuildOp.Task.ID].Ops[0]
			}
		}
	}
	ts := testScheduler(8, 0.5, 0.7)
	if b, err := ts.PhaseBound(tt); err == nil {
		t.Errorf("PhaseBound priced probes of a foreign build (bound %g)", b)
	}
	if _, err := ts.Schedule(tt); err == nil {
		t.Error("Schedule placed probes of a foreign build")
	}
}

// TestWarmPhaseBoundAllocs pins a warm PhaseBound at no allocation:
// the record, its slabs and its phase lists come from the pool, the
// degrees from the cost model.
func TestWarmPhaseBoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratches under the race detector")
	}
	tt := randomTree(1, 20)
	ts := testScheduler(64, 0.5, 0.7)
	ts.Cache = costmodel.NewCache(ts.Model)
	run := func() {
		if _, err := ts.PhaseBound(tt); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs > 0 {
		t.Fatalf("warm PhaseBound allocates %.0f times, want 0", allocs)
	}
}

// TestLentPhaseListsSurviveRepricing places a tree from a record, which
// lends the tree's phase lists to the schedule's phases, then prices
// smaller trees into the same record: the schedule's Phases[i].Tasks
// must keep their tasks, while the record's lists follow each new tree.
func TestLentPhaseListsSurviveRepricing(t *testing.T) {
	ts := testScheduler(16, 0.5, 0.7)
	var pr Priced
	if _, err := ts.Price(&pr, randomTree(3, 12)); err != nil {
		t.Fatal(err)
	}
	s, err := pr.Schedule(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]*plan.Task, len(s.Phases))
	for i, ph := range s.Phases {
		want[i] = slices.Clone(ph.Tasks)
	}
	for seed := int64(4); seed < 7; seed++ {
		other := randomTree(seed, 6)
		if _, err := ts.Price(&pr, other); err != nil {
			t.Fatal(err)
		}
		for i, ph := range s.Phases {
			if !slices.Equal(ph.Tasks, want[i]) {
				t.Fatalf("pricing tree %d rewrote phase %d of an earlier schedule", seed, i)
			}
		}
		for i, tasks := range other.PhasesBy(ts.Policy) {
			if !slices.Equal(pr.phases[i], tasks) {
				t.Fatalf("record's phase %d does not list tree %d's tasks", i, seed)
			}
		}
	}
}
