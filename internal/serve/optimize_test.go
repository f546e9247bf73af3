package serve

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"mdrs/internal/obs"
	"mdrs/internal/optimizer"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/sched"
)

func optimizeRels(t testing.TB, seed int64, count int) []*query.Relation {
	t.Helper()
	rels, err := optimizer.RandomRelations(rand.New(rand.NewSource(seed)), count, 1000, 100000)
	if err != nil {
		t.Fatal(err)
	}
	return rels
}

func TestOptimizeRequiresConfig(t *testing.T) {
	svc := mustService(t, Config{Scheduler: testScheduler(16, 0.5, 0.7)})
	_, err := svc.Optimize(context.Background(), rand.New(rand.NewSource(1)), optimizeRels(t, 1, 4))
	if !errors.Is(err, ErrNoOptimizer) {
		t.Fatalf("err = %v, want ErrNoOptimizer", err)
	}
}

// New refuses an optimizer configuration no search can run, instead of
// admitting every Optimize only to fail it.
func TestNewRejectsUnsearchableOptimizerConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		oc   OptimizerConfig
		want string
	}{
		{"negative candidates", OptimizerConfig{Candidates: -1}, "negative candidate count -1"},
		{"exhaustive joins past the enumerator", OptimizerConfig{ExhaustiveJoins: 12}, "exceeds the enumerable range (max 9)"},
	} {
		oc := tc.oc
		svc, err := New(Config{Scheduler: testScheduler(16, 0.5, 0.7), Optimizer: &oc})
		if err == nil {
			svc.Close()
			t.Errorf("%s: New accepted %+v", tc.name, oc)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
}

// Optimize must return exactly what a direct search under the
// service's scheduler parameters returns — same winner, byte-identical
// schedule — and a second run over the same catalog must warm-start
// from the cache: at least the winner comes back without TreeSchedule.
func TestOptimizeMatchesDirectSearchAndWarmStarts(t *testing.T) {
	for _, joins := range []int{3, 6} {
		ts := testScheduler(32, 0.5, 0.7)
		met := obs.NewMetrics()
		svc := mustService(t, Config{
			Scheduler: ts,
			CacheSize: 64,
			Optimizer: &OptimizerConfig{Candidates: 8},
			Rec:       met,
		})
		rels := optimizeRels(t, int64(100+joins), joins+1)

		direct := optimizer.Search{
			Model: ts.Model, Overlap: ts.Overlap, P: ts.P, F: ts.F,
			Candidates: 8,
		}
		want, err := direct.Best(rand.New(rand.NewSource(7)), rels)
		if err != nil {
			t.Fatal(err)
		}

		cold, err := svc.Optimize(context.Background(), rand.New(rand.NewSource(7)), rels)
		if err != nil {
			t.Fatal(err)
		}
		if cold.Best.Index != want.Best.Index {
			t.Fatalf("joins=%d: service winner %d, direct winner %d", joins, cold.Best.Index, want.Best.Index)
		}
		wantBytes, err := sched.EncodeJSON(want.Best.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		coldBytes, err := sched.EncodeJSON(cold.Best.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(coldBytes, wantBytes) {
			t.Fatalf("joins=%d: service winner schedule differs from direct search", joins)
		}

		// The winner was written back: a warm run prunes from an exact
		// achieved response and serves at least one candidate (the
		// winner itself, and possibly others) from the cache.
		warm, err := svc.Optimize(context.Background(), rand.New(rand.NewSource(7)), rels)
		if err != nil {
			t.Fatal(err)
		}
		if warm.WarmHits == 0 {
			t.Fatalf("joins=%d: second Optimize had no warm hits", joins)
		}
		if warm.Best.Index != want.Best.Index {
			t.Fatalf("joins=%d: warm winner %d, want %d", joins, warm.Best.Index, want.Best.Index)
		}
		warmBytes, err := sched.EncodeJSON(warm.Best.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(warmBytes, wantBytes) {
			t.Fatalf("joins=%d: warm winner schedule differs", joins)
		}
		if warm.Scheduled > cold.Scheduled {
			t.Fatalf("joins=%d: warm run scheduled %d > cold %d", joins, warm.Scheduled, cold.Scheduled)
		}
	}
}

// The winner's schedule lands in the schedule cache under its
// fingerprint: a subsequent Schedule of the winning plan is a cache
// hit, not a fresh TreeSchedule.
func TestOptimizeWinnerFeedsScheduleCache(t *testing.T) {
	ts := testScheduler(16, 0.5, 0.7)
	met := obs.NewMetrics()
	svc := mustService(t, Config{
		Scheduler: ts,
		CacheSize: 32,
		MaxBatch:  1,
		Optimizer: &OptimizerConfig{},
		Rec:       met,
	})
	rels := optimizeRels(t, 42, 4)
	res, err := svc.Optimize(context.Background(), rand.New(rand.NewSource(9)), rels)
	if err != nil {
		t.Fatal(err)
	}
	if svc.CacheLen() == 0 {
		t.Fatal("optimize left the schedule cache empty")
	}
	tt := plan.MustNewTaskTree(plan.MustExpand(res.Best.Plan))
	before := met.Snapshot().Counters["serve.cache_hits"]
	got, err := svc.Schedule(context.Background(), tt)
	if err != nil {
		t.Fatal(err)
	}
	after := met.Snapshot().Counters["serve.cache_hits"]
	if after != before+1 {
		t.Fatalf("scheduling the winner: cache hits %d -> %d, want a hit", before, after)
	}
	gotBytes, err := sched.EncodeJSON(got.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := sched.EncodeJSON(res.Best.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatal("cached winner schedule differs from the search's")
	}
}

// Optimize respects admission control and the closed state like any
// request, and files only a shed under serve.optimize_rejected: a dead
// context and a closed service are neither shed nor searched.
func TestOptimizeAdmission(t *testing.T) {
	met := obs.NewMetrics()
	svc := mustService(t, Config{
		Scheduler:   testScheduler(8, 0.5, 0.7),
		MaxInFlight: 1,
		MaxQueue:    -1, // full means shed
		Optimizer:   &OptimizerConfig{},
		Rec:         met,
	})
	optimize := func(ctx context.Context) error {
		_, err := svc.Optimize(ctx, rand.New(rand.NewSource(1)), optimizeRels(t, 2, 4))
		return err
	}
	counters := func(rejected, searches, inflight int64) {
		t.Helper()
		snap := met.Snapshot()
		cs := snap.Counters
		if cs["serve.optimize_rejected"] != rejected || cs["serve.optimize_searches"] != searches ||
			cs["serve.optimize_failed"] != 0 || snap.Histograms["serve.inflight"].Count != inflight {
			t.Fatalf("rejected=%d searches=%d failed=%d admissions=%d, want %d/%d/0/%d",
				cs["serve.optimize_rejected"], cs["serve.optimize_searches"], cs["serve.optimize_failed"],
				snap.Histograms["serve.inflight"].Count, rejected, searches, inflight)
		}
	}
	// A pre-cancelled context never takes an in-flight token.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := optimize(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v", err)
	}
	counters(0, 0, 0)
	// With the only token taken the call is shed, and counted so.
	svc.sem <- struct{}{}
	if err := optimize(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full: err = %v", err)
	}
	<-svc.sem
	counters(1, 0, 0)
	// Closed service rejects with ErrClosed, which is not a shed.
	svc.Close()
	if err := optimize(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed: err = %v", err)
	}
	counters(1, 0, 0)
}

// Optimize counters: searches, delivered, and the scheduled/pruned
// ledger are recorded; the request-path counters (serve.requests etc.)
// are untouched — Optimize is not a Schedule call.
func TestOptimizeCounters(t *testing.T) {
	ts := testScheduler(16, 0.5, 0.7)
	met := obs.NewMetrics()
	svc := mustService(t, Config{
		Scheduler: ts,
		CacheSize: 16,
		Optimizer: &OptimizerConfig{},
		Rec:       met,
	})
	if _, err := svc.Optimize(context.Background(), rand.New(rand.NewSource(3)), optimizeRels(t, 5, 4)); err != nil {
		t.Fatal(err)
	}
	snap := met.Snapshot().Counters
	if snap["serve.optimize_searches"] != 1 || snap["serve.optimize_delivered"] != 1 {
		t.Fatalf("searches=%d delivered=%d, want 1/1",
			snap["serve.optimize_searches"], snap["serve.optimize_delivered"])
	}
	if snap["serve.optimize_scheduled"] == 0 {
		t.Fatal("no scheduled candidates recorded")
	}
	if snap["serve.requests"] != 0 {
		t.Fatalf("Optimize leaked into serve.requests = %d", snap["serve.requests"])
	}
}
