package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"mdrs/internal/obs"
	"mdrs/internal/plan"
	"mdrs/internal/sched"
)

// A cached result must be byte-identical to a direct TreeSchedule of
// the same tree — the cache may only change latency, never output.
func TestCacheHitIdenticalToDirectSchedule(t *testing.T) {
	ts := testScheduler(16, 0.5, 0.3)
	svc := mustService(t, Config{Scheduler: ts, CacheSize: 8})
	ctx := context.Background()

	for seed := int64(0); seed < 5; seed++ {
		tree := testTree(t, seed, 4+int(seed))
		direct, err := ts.Schedule(tree)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sched.EncodeJSON(direct)
		if err != nil {
			t.Fatal(err)
		}
		// Miss, then hit; both must match the direct schedule.
		for round := 0; round < 2; round++ {
			res, err := svc.Schedule(ctx, tree)
			if err != nil {
				t.Fatal(err)
			}
			if round == 1 && !res.Cached {
				t.Fatalf("seed %d: second request not served from cache", seed)
			}
			if len(res.Group) != 1 {
				t.Fatalf("seed %d: cache path group size %d, want 1", seed, len(res.Group))
			}
			got, err := sched.EncodeJSON(res.Schedule)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("seed %d round %d: schedule differs from direct TreeSchedule", seed, round)
			}
		}
	}
}

// The cache hammer (part of `make race`): many goroutines racing
// on a small set of distinct plans. Every result must be correct, and
// the counters must add up — with singleflight, each distinct plan is
// computed at least once and at most once per moment, and everything
// else is a hit or a coalescence.
func TestCacheHammerCountersAndIdentity(t *testing.T) {
	const (
		distinct = 4
		workers  = 16
		rounds   = 8
	)
	ts := testScheduler(12, 0.5, 0.4)
	rec := obs.NewMetrics()
	svc := mustService(t, Config{Scheduler: ts, CacheSize: distinct, Rec: rec})
	ctx := context.Background()

	trees := make([]*plan.TaskTree, distinct)
	want := make([]string, distinct)
	for i := range trees {
		trees[i] = testTree(t, int64(100+i), 3+i)
		direct, err := ts.Schedule(trees[i])
		if err != nil {
			t.Fatal(err)
		}
		j, err := sched.EncodeJSON(direct)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = string(j)
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % distinct
				res, err := svc.Schedule(ctx, trees[i])
				if err != nil {
					errs <- err
					return
				}
				j, err := sched.EncodeJSON(res.Schedule)
				if err != nil {
					errs <- err
					return
				}
				if string(j) != want[i] {
					errs <- fmt.Errorf("worker %d round %d: schedule differs from direct", w, r)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	snap := rec.Snapshot()
	hits := snap.Counters["serve.cache_hits"]
	misses := snap.Counters["serve.cache_misses"]
	coalesced := snap.Counters["serve.cache_coalesced"]
	total := int64(workers * rounds)
	if misses < distinct {
		t.Fatalf("misses = %d, want >= %d (each distinct plan computed)", misses, distinct)
	}
	if hits+coalesced+misses < total {
		t.Fatalf("hits(%d) + coalesced(%d) + misses(%d) < requests(%d)",
			hits, coalesced, misses, total)
	}
	if hits == 0 {
		t.Fatal("no cache hits across repeated identical plans")
	}
	if svc.CacheLen() != distinct {
		t.Fatalf("CacheLen = %d, want %d", svc.CacheLen(), distinct)
	}
}

// The LRU must stay bounded and count its evictions; a re-requested
// evicted plan is recomputed (a new miss), not resurrected.
func TestCacheEvictionBounded(t *testing.T) {
	ts := testScheduler(8, 0.5, 0.4)
	rec := obs.NewMetrics()
	svc := mustService(t, Config{Scheduler: ts, CacheSize: 2, Rec: rec})
	ctx := context.Background()

	trees := []*plan.TaskTree{
		testTree(t, 201, 3), testTree(t, 202, 4), testTree(t, 203, 5),
	}
	for _, tree := range trees {
		if _, err := svc.Schedule(ctx, tree); err != nil {
			t.Fatal(err)
		}
	}
	if got := svc.CacheLen(); got != 2 {
		t.Fatalf("CacheLen = %d, want 2 (bounded)", got)
	}
	snap := rec.Snapshot()
	if snap.Counters["serve.cache_evictions"] != 1 {
		t.Fatalf("evictions = %d, want 1", snap.Counters["serve.cache_evictions"])
	}
	// trees[0] was the LRU victim: asking again is a fresh miss.
	if _, err := svc.Schedule(ctx, trees[0]); err != nil {
		t.Fatal(err)
	}
	snap = rec.Snapshot()
	if snap.Counters["serve.cache_misses"] != 4 {
		t.Fatalf("misses after re-request = %d, want 4", snap.Counters["serve.cache_misses"])
	}
}

// A plan already being computed must not be computed again: concurrent
// identical requests coalesce onto one singleflight leader. The leader
// holds the only admission slot the whole group needs, so even a
// MaxInFlight=1, no-queue service absorbs the burst without shedding.
func TestCacheSingleflightCoalesces(t *testing.T) {
	ts := testScheduler(16, 0.5, 0.3)
	rec := obs.NewMetrics()
	svc := mustService(t, Config{
		Scheduler: ts, CacheSize: 4, MaxInFlight: 1, MaxQueue: -1, Rec: rec,
	})
	ctx := context.Background()
	tree := testTree(t, 301, 8)

	const n = 12
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.Schedule(ctx, tree); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("burst request failed: %v (coalesced requests must not be shed)", err)
	}
	snap := rec.Snapshot()
	if misses := snap.Counters["serve.cache_misses"]; misses != 1 {
		t.Fatalf("misses = %d, want 1 (singleflight)", misses)
	}
	if hits := snap.Counters["serve.cache_hits"] + snap.Counters["serve.cache_coalesced"]; hits != n-1 {
		t.Fatalf("hits+coalesced = %d, want %d", hits, n-1)
	}
}

// A follower whose own context dies while waiting for the leader
// returns promptly with its ctx error; a follower stranded by a
// cancelled leader retries and becomes the next leader. The test holds
// the flight open itself (white-box: flightFor before any request) so
// the follower states are reached deterministically.
func TestCacheFollowerCancellation(t *testing.T) {
	ts := testScheduler(16, 0.5, 0.3)
	svc := mustService(t, Config{Scheduler: ts, CacheSize: 4})
	tree := testTree(t, 401, 6)
	fp := ts.Fingerprint(tree)

	// Become the flight leader out-of-band: every Schedule call for the
	// plan is now a follower until the flight resolves.
	fl, leader := svc.cache.flightFor(fp)
	if !leader {
		t.Fatal("test could not claim flight leadership")
	}

	folCtx, cancelFol := context.WithCancel(context.Background())
	folDone := make(chan error, 1)
	go func() {
		_, err := svc.Schedule(folCtx, tree)
		folDone <- err
	}()
	fol2Done := make(chan error, 1)
	go func() {
		_, err := svc.Schedule(context.Background(), tree)
		fol2Done <- err
	}()
	time.Sleep(20 * time.Millisecond)

	// Cancel the first follower: it must return its own ctx error
	// promptly even though the flight is still open.
	cancelFol()
	select {
	case err := <-folDone:
		if err != context.Canceled {
			t.Fatalf("cancelled follower returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled follower did not return while flight was open")
	}

	// Resolve the flight as a cancelled leader: the surviving follower
	// must retry, take over leadership, and complete the schedule.
	svc.cache.resolve(fp, fl, nil, nil, context.Canceled)
	select {
	case err := <-fol2Done:
		if err != nil {
			t.Fatalf("successor follower failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("successor follower never completed after leader cancellation")
	}
	if svc.CacheLen() != 1 {
		t.Fatalf("CacheLen = %d, want 1 (successor filled the cache)", svc.CacheLen())
	}
}

// BenchmarkCacheHitParallel times one cache hit with every processor
// hitting the same 64-entry cache, the lock traffic of http_hit.
func BenchmarkCacheHitParallel(b *testing.B) {
	const n = 64
	c := newSchedCache(n)
	tree := &plan.TaskTree{}
	for i := byte(0); i < n; i++ {
		c.put(fpOf(i), nil, tree)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var i byte
		for pb.Next() {
			if c.get(fpOf(i%n)) == nil {
				b.Error("miss on a cached fingerprint")
				return
			}
			i++
		}
	})
}
