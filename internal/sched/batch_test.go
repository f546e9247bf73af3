package sched

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mdrs/internal/costmodel"
	"mdrs/internal/obs"
	"mdrs/internal/plan"
	"mdrs/internal/query"
)

func batchTrees(t *testing.T, seeds ...int64) []*plan.TaskTree {
	t.Helper()
	trees := make([]*plan.TaskTree, len(seeds))
	for i, seed := range seeds {
		r := rand.New(rand.NewSource(seed))
		p := query.MustRandom(r, query.DefaultGenConfig(8))
		trees[i] = plan.MustNewTaskTree(plan.MustExpand(p))
	}
	return trees
}

func TestScheduleBatchValidation(t *testing.T) {
	ts := testScheduler(8, 0.5, 0.7)
	if _, err := ts.ScheduleBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
	bad := ts
	bad.P = 0
	if _, err := bad.ScheduleBatch(batchTrees(t, 1)); err == nil {
		t.Error("invalid scheduler accepted")
	}
}

// A query alone is the batch of one: through either entry point a tree
// yields the same bytes and the same recorder stream — events, counters
// and the number of samples under every timer.
func TestScheduleBatchSingleMatchesSchedule(t *testing.T) {
	type stream struct {
		json     []byte
		events   []obs.Event
		counters map[string]int64
		samples  map[string]int64
	}
	record := func(tt *plan.TaskTree, batch bool) stream {
		cap, met := obs.NewCapture(), obs.NewMetrics()
		ts := testScheduler(12, 0.5, 0.7)
		ts.Rec = obs.Multi(cap, met)
		var s *Schedule
		var err error
		if batch {
			s, err = ts.ScheduleBatch([]*plan.TaskTree{tt})
		} else {
			s, err = ts.Schedule(tt)
		}
		if err != nil {
			t.Fatal(err)
		}
		data, err := EncodeJSON(s)
		if err != nil {
			t.Fatal(err)
		}
		snap := met.Snapshot()
		out := stream{json: data, events: cap.Events(), counters: snap.Counters, samples: map[string]int64{}}
		for name, h := range snap.Histograms {
			out.samples[name] = h.Count
		}
		return out
	}
	for _, tt := range batchTrees(t, 5, 6, 7) {
		single, batch := record(tt, false), record(tt, true)
		if !bytes.Equal(single.json, batch.json) {
			t.Fatal("batch of one encodes differently from Schedule")
		}
		if !reflect.DeepEqual(single.events, batch.events) {
			t.Fatal("batch of one emits a different event stream from Schedule")
		}
		if !reflect.DeepEqual(single.counters, batch.counters) {
			t.Fatalf("counters differ: Schedule %v, batch of one %v", single.counters, batch.counters)
		}
		if !reflect.DeepEqual(single.samples, batch.samples) {
			t.Fatalf("histogram sample counts differ: Schedule %v, batch of one %v", single.samples, batch.samples)
		}
	}
}

func TestScheduleBatchSharesResources(t *testing.T) {
	// The whole point: scheduling Q queries together must beat running
	// them back to back, because phases share sites across queries.
	ts := testScheduler(24, 0.5, 0.7)
	trees := batchTrees(t, 1, 2, 3, 4)
	serial := 0.0
	for _, tt := range trees {
		s, err := ts.Schedule(tt)
		if err != nil {
			t.Fatal(err)
		}
		serial += s.Response
	}
	batch, err := ts.ScheduleBatch(trees)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Response >= serial {
		t.Fatalf("batch %g not better than serial %g", batch.Response, serial)
	}
}

func TestScheduleBatchPlacesEveryOperatorOnce(t *testing.T) {
	ts := testScheduler(10, 0.4, 0.7)
	trees := batchTrees(t, 7, 8, 9)
	batch, err := ts.ScheduleBatch(trees)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, tt := range trees {
		for _, tk := range tt.Tasks {
			want += len(tk.Ops)
		}
	}
	seen := map[*plan.Operator]bool{}
	for _, ph := range batch.Phases {
		for _, pl := range ph.Placements {
			if seen[pl.Op] {
				t.Fatalf("operator %s placed twice", pl.Op.Name)
			}
			seen[pl.Op] = true
		}
	}
	if len(seen) != want {
		t.Fatalf("placed %d of %d operators", len(seen), want)
	}
}

func TestScheduleBatchPreservesBlockingPerQuery(t *testing.T) {
	ts := testScheduler(10, 0.5, 0.7)
	trees := batchTrees(t, 11, 12)
	batch, err := ts.ScheduleBatch(trees)
	if err != nil {
		t.Fatal(err)
	}
	phaseOf := map[*plan.Operator]int{}
	for i, ph := range batch.Phases {
		for _, pl := range ph.Placements {
			phaseOf[pl.Op] = i
		}
	}
	for op, phase := range phaseOf {
		if op.BuildOp == nil {
			continue
		}
		if phaseOf[op.BuildOp] >= phase {
			t.Fatalf("probe %s in phase %d, its build in phase %d",
				op.Name, phase, phaseOf[op.BuildOp])
		}
	}
}

func TestScheduleBatchPhaseCountIsMax(t *testing.T) {
	ts := testScheduler(10, 0.5, 0.7)
	trees := batchTrees(t, 13, 14, 15)
	maxPhases := 0
	for _, tt := range trees {
		if tt.Height+1 > maxPhases {
			maxPhases = tt.Height + 1
		}
	}
	batch, err := ts.ScheduleBatch(trees)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Phases) != maxPhases {
		t.Fatalf("batch phases = %d, want %d", len(batch.Phases), maxPhases)
	}
}

func TestRandomDeclusteringProducesValidHomes(t *testing.T) {
	ts := testScheduler(12, 0.5, 0.7)
	r := rand.New(rand.NewSource(21))
	p := query.MustRandom(r, query.DefaultGenConfig(10))
	tt := plan.MustNewTaskTree(plan.MustExpand(p))
	homes, err := ts.RandomDeclustering(r, tt)
	if err != nil {
		t.Fatal(err)
	}
	scans := 0
	for _, tk := range tt.Tasks {
		for _, op := range tk.Ops {
			if op.Kind == costmodel.Scan {
				scans++
				home := homes[op.ID]
				if len(home) == 0 {
					t.Fatalf("scan %s has no home", op.Name)
				}
				seen := map[int]bool{}
				for _, s := range home {
					if s < 0 || s >= ts.P || seen[s] {
						t.Fatalf("scan %s home %v invalid", op.Name, home)
					}
					seen[s] = true
				}
			} else if homes[op.ID] != nil {
				t.Fatalf("non-scan %s was declustered", op.Name)
			}
		}
	}
	if scans != 11 {
		t.Fatalf("declustered %d scans, want 11", scans)
	}

	// The homes must be usable end to end.
	ts.Homes = homes
	s, err := ts.Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range s.Phases {
		for _, pl := range ph.Placements {
			if pl.Op.Kind != costmodel.Scan {
				continue
			}
			for k, site := range pl.Sites {
				if homes[pl.Op.ID][k] != site {
					t.Fatalf("declustered scan %s moved", pl.Op.Name)
				}
			}
		}
	}
}

func TestDeclusteredScansCostSomething(t *testing.T) {
	// Fixing scan placement takes freedom away from the scheduler; over
	// several plans the rooted configuration must not beat the floating
	// one.
	base := testScheduler(16, 0.5, 0.7)
	r := rand.New(rand.NewSource(33))
	var sumFloat, sumRooted float64
	for trial := 0; trial < 6; trial++ {
		p := query.MustRandom(r, query.DefaultGenConfig(10))
		tt := plan.MustNewTaskTree(plan.MustExpand(p))
		sFloat, err := base.Schedule(tt)
		if err != nil {
			t.Fatal(err)
		}
		rooted := base
		homes, err := base.RandomDeclustering(r, tt)
		if err != nil {
			t.Fatal(err)
		}
		rooted.Homes = homes
		sRooted, err := rooted.Schedule(tt)
		if err != nil {
			t.Fatal(err)
		}
		sumFloat += sFloat.Response
		sumRooted += sRooted.Response
	}
	if sumRooted < sumFloat*0.999 {
		t.Fatalf("rooted scans %g beat floating %g — freedom should not hurt",
			sumRooted, sumFloat)
	}
}

func BenchmarkScheduleBatch4Queries(b *testing.B) {
	ts := testScheduler(32, 0.5, 0.7)
	var trees []*plan.TaskTree
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		p := query.MustRandom(r, query.DefaultGenConfig(15))
		trees = append(trees, plan.MustNewTaskTree(plan.MustExpand(p)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ts.ScheduleBatch(trees); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScheduleBatchAliasedTrees is the regression test for the shared
// homes map: the same *plan.TaskTree submitted at two batch positions
// used to cross-contaminate build→probe home placements (entry 1's
// build overwrote entry 0's home under the same *plan.Operator key),
// silently rooting entry 0's probes at entry 1's hash-table sites. The
// aliased batch must be byte-identical to the same workload built from
// two structurally-equal but distinct trees.
func TestScheduleBatchAliasedTrees(t *testing.T) {
	ts := testScheduler(16, 0.5, 0.7)
	aliased := batchTrees(t, 19)
	aliasedBatch, err := ts.ScheduleBatch([]*plan.TaskTree{aliased[0], aliased[0]})
	if err != nil {
		t.Fatal(err)
	}
	distinct := batchTrees(t, 19, 19)
	distinctBatch, err := ts.ScheduleBatch(distinct)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EncodeJSON(aliasedBatch)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeJSON(distinctBatch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("aliased batch differs from the same workload with distinct trees")
	}
}

func TestScheduleBatchRejectsNilAndEmptyTrees(t *testing.T) {
	ts := testScheduler(8, 0.5, 0.7)
	trees := batchTrees(t, 23)
	if _, err := ts.ScheduleBatch([]*plan.TaskTree{trees[0], nil}); err == nil ||
		!strings.Contains(err.Error(), "query 1") {
		t.Errorf("nil tree in batch: err = %v, want a query-1 error", err)
	}
	if _, err := ts.ScheduleBatch([]*plan.TaskTree{trees[0], {}}); err == nil ||
		!strings.Contains(err.Error(), "query 1") {
		t.Errorf("zero-task tree in batch: err = %v, want a query-1 error", err)
	}
}

func TestScheduleBatchHeterogeneousPhaseCounts(t *testing.T) {
	ts := testScheduler(16, 0.5, 0.7)
	short := batchTrees(t, 25)[0] // 8 joins
	r := rand.New(rand.NewSource(26))
	tall := plan.MustNewTaskTree(plan.MustExpand(query.MustRandom(r, query.DefaultGenConfig(14))))
	if short.Height >= tall.Height {
		t.Fatalf("want heterogeneous heights, got %d and %d", short.Height, tall.Height)
	}
	batch, err := ts.ScheduleBatch([]*plan.TaskTree{short, tall})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Phases) != tall.Height+1 {
		t.Fatalf("batch phases = %d, want the taller tree's %d", len(batch.Phases), tall.Height+1)
	}
	// The shorter query stops contributing once its own phases run out:
	// the final phases hold only the taller tree's operators.
	shortOps := map[*plan.Operator]bool{}
	for _, tk := range short.Tasks {
		for _, op := range tk.Ops {
			shortOps[op] = true
		}
	}
	last := batch.Phases[len(batch.Phases)-1]
	if len(last.Placements) == 0 {
		t.Fatal("final phase is empty")
	}
	for _, pl := range last.Placements {
		if shortOps[pl.Op] {
			t.Fatalf("short query's %s leaked into phase %d past its height %d",
				pl.Op.Name, last.Index, short.Height)
		}
	}
}

func TestScheduleBatchCtxCancelled(t *testing.T) {
	ts := testScheduler(8, 0.5, 0.7)
	trees := batchTrees(t, 27, 28)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ts.ScheduleBatchCtx(ctx, trees); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestScheduleCtxCancelled(t *testing.T) {
	ts := testScheduler(8, 0.5, 0.7)
	tree := batchTrees(t, 29)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ts.ScheduleCtx(ctx, tree); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// A context that stays live never changes the outcome.
	plain, err := ts.Schedule(tree)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := ts.ScheduleCtx(context.Background(), tree)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := EncodeJSON(withCtx)
	want, _ := EncodeJSON(plain)
	if !bytes.Equal(got, want) {
		t.Fatal("a live context changed the schedule")
	}
}
