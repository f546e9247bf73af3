package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mdrs/internal/obs"
	"mdrs/internal/plan"
	"mdrs/internal/sched"
)

// Regression: a follower coalesced onto a leader that was shed by
// admission control (ErrOverloaded) must NOT inherit the shed — the
// follower held no admission resources while waiting, so the leader's
// rejection says nothing about it. It retries, takes over leadership,
// and completes. (Before the fix, a full service turned one shed leader
// into a shed for every coalesced follower.)
func TestCacheFollowerRetriesAfterLeaderOverload(t *testing.T) {
	ts := testScheduler(16, 0.5, 0.3)
	svc := mustService(t, Config{Scheduler: ts, CacheSize: 4})
	tree := testTree(t, 501, 6)
	fp := ts.Fingerprint(tree)

	// Claim flight leadership out-of-band so the Schedule call below is
	// deterministically a follower.
	fl, leader := svc.cache.flightFor(fp)
	if !leader {
		t.Fatal("test could not claim flight leadership")
	}

	folDone := make(chan error, 1)
	var res *Result
	go func() {
		var err error
		res, err = svc.Schedule(context.Background(), tree)
		folDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // follower is parked on the flight

	// Resolve the flight as a shed leader: the follower must loop, win
	// the next flight, and schedule the plan itself.
	svc.cache.resolve(fp, fl, nil, nil, ErrOverloaded)
	select {
	case err := <-folDone:
		if err != nil {
			t.Fatalf("follower inherited the leader's shed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower never completed after leader overload")
	}
	if res == nil || res.Schedule == nil {
		t.Fatal("follower returned no schedule")
	}
	if svc.CacheLen() != 1 {
		t.Fatalf("CacheLen = %d, want 1 (successor filled the cache)", svc.CacheLen())
	}
}

// fpOf fabricates a distinct fingerprint per i.
func fpOf(i byte) sched.Fingerprint {
	var fp sched.Fingerprint
	fp[0] = i
	return fp
}

// The cache is bounded, counts its evictions, and always evicts the
// least recently used entry — also after concurrent hits.
func TestCacheExactLRU(t *testing.T) {
	c := newSchedCache(4)
	tree := &plan.TaskTree{}
	// Capacity 4 ⇒ the four oldest of eight inserts are evicted as the
	// later ones arrive.
	for i := byte(0); i < 8; i++ {
		c.put(fpOf(i), nil, tree)
	}
	if got := c.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4 (bounded)", got)
	}
	if got := c.evictionCount(); got != 4 {
		t.Fatalf("evictionCount = %d, want 4", got)
	}
	for i := byte(0); i < 8; i++ {
		e := c.get(fpOf(i))
		if want := i >= 4; (e != nil) != want {
			t.Fatalf("entry %d cached=%v, want %v (LRU order)", i, e != nil, want)
		}
	}

	// Touch the otherwise-oldest survivor, then overflow: the victim
	// must be the least recently touched entry (5), not the newly
	// touched one.
	c.get(fpOf(4))
	c.put(fpOf(9), nil, tree)
	if c.get(fpOf(5)) != nil {
		t.Fatal("least recently used entry (5) survived eviction")
	}
	if c.get(fpOf(4)) == nil {
		t.Fatal("freshly touched entry (4) was evicted")
	}

	// Concurrent hits on every entry but one leave that one as the
	// tail: the next insert past capacity evicts exactly it.
	const n = 8
	c2 := newSchedCache(n)
	for i := byte(0); i < n; i++ {
		c2.put(fpOf(i), nil, tree)
	}
	const untouched = 3
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				for i := byte(0); i < n; i++ {
					if i != untouched && c2.get(fpOf(i)) == nil {
						t.Errorf("entry %d missing before overflow", i)
					}
				}
			}
		}()
	}
	wg.Wait()
	if ev := c2.put(fpOf(n), nil, tree); ev != 1 {
		t.Fatalf("put past capacity evicted %d entries, want 1", ev)
	}
	for i := byte(0); i <= n; i++ {
		if want := i != untouched; (c2.get(fpOf(i)) != nil) != want {
			t.Fatalf("entry %d cached=%v, want %v (true LRU tail is %d)", i, !want, want, untouched)
		}
	}
}

// The service-level eviction counter must agree with the cache's own
// accounting.
func TestCacheEvictionCounterMatchesCacheAccounting(t *testing.T) {
	ts := testScheduler(8, 0.5, 0.4)
	rec := obs.NewMetrics()
	svc := mustService(t, Config{Scheduler: ts, CacheSize: 2, Rec: rec})
	ctx := context.Background()
	for seed := int64(601); seed < 605; seed++ {
		if _, err := svc.Schedule(ctx, testTree(t, seed, 3)); err != nil {
			t.Fatal(err)
		}
	}
	counted := rec.Snapshot().Counters["serve.cache_evictions"]
	if counted != 2 {
		t.Fatalf("serve.cache_evictions = %d, want 2", counted)
	}
	if got := svc.cache.evictionCount(); got != counted {
		t.Fatalf("cache accounting says %d evictions, counter says %d", got, counted)
	}
	if svc.CacheLen() != 2 {
		t.Fatalf("CacheLen = %d, want 2", svc.CacheLen())
	}
}

// Every submission lands in exactly one outcome counter, and invalid
// submissions are kept out of serve.requests — the goodput denominator.
// At quiescence:
//
//	requests  = delivered + rejected + cancelled + closed_rejects + failed
//	submitted = requests + invalid
func TestCounterArithmetic(t *testing.T) {
	met := obs.NewMetrics()
	svc := mustService(t, Config{
		Scheduler:   testScheduler(8, 0.5, 0.7),
		MaxInFlight: 1,
		MaxQueue:    -1, // full means shed
		BatchWindow: 150 * time.Millisecond,
		Rec:         met,
	})
	ctx := context.Background()
	tree := testTree(t, 701, 4)

	// Three invalid submissions: counted as serve.invalid only.
	if _, err := svc.Schedule(ctx, nil); err == nil {
		t.Fatal("nil tree accepted")
	}
	if _, err := svc.Schedule(ctx, &plan.TaskTree{}); err == nil {
		t.Fatal("empty tree accepted")
	}
	negative := testTree(t, 701, 4)
	negative.Tasks[0].Ops[0].Spec.InTuples = -5000
	if _, err := svc.Schedule(ctx, negative); err == nil {
		t.Fatal("tree of negative cardinality accepted")
	}

	// One cancelled: pre-cancelled context, valid tree.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := svc.Schedule(cctx, tree); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}

	// One delivered and one rejected: the first holds the only slot in
	// its batching window while the second is shed.
	firstDone := make(chan error, 1)
	go func() {
		_, err := svc.Schedule(ctx, tree)
		firstDone <- err
	}()
	time.Sleep(30 * time.Millisecond)
	if _, err := svc.Schedule(ctx, tree); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("got %v, want ErrOverloaded", err)
	}
	if err := <-firstDone; err != nil {
		t.Fatalf("first request failed: %v", err)
	}

	// One closed reject.
	svc.Close()
	if _, err := svc.Schedule(ctx, tree); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}

	snap := met.Snapshot()
	cs := snap.Counters
	if cs["serve.invalid"] != 3 {
		t.Fatalf("serve.invalid = %d, want 3", cs["serve.invalid"])
	}
	want := map[string]int64{
		"serve.delivered":      1,
		"serve.rejected":       1,
		"serve.cancelled":      1,
		"serve.closed_rejects": 1,
		"serve.failed":         0,
	}
	for name, n := range want {
		if cs[name] != n {
			t.Fatalf("%s = %d, want %d (counters: %v)", name, cs[name], n, cs)
		}
	}
	sum := cs["serve.delivered"] + cs["serve.rejected"] + cs["serve.cancelled"] +
		cs["serve.closed_rejects"] + cs["serve.failed"]
	if cs["serve.requests"] != sum {
		t.Fatalf("serve.requests = %d, outcome classes sum to %d", cs["serve.requests"], sum)
	}
	if cs["serve.requests"] != 4 {
		t.Fatalf("serve.requests = %d, want 4 (invalid excluded)", cs["serve.requests"])
	}
	// Every valid request's wall time was observed, invalid ones never.
	if h := snap.Histograms["serve.request_seconds"]; h.Count != 4 {
		t.Fatalf("serve.request_seconds count = %d, want 4", h.Count)
	}
}

// TestCachedSingletonHammerRacesClose drives the cached-singleton path
// (leader admission → spawnGroup → deliver) while Close races it, so
// the spawnGroup-returns-false → inline-runGroup fallback is exercised
// under the race detector. Part of `make race`: every request must end in a classified outcome — success,
// ErrClosed, ErrOverloaded, or its own ctx error — and the counter
// arithmetic must balance after the dust settles.
func TestCachedSingletonHammerRacesClose(t *testing.T) {
	const workers = 8
	ts := testScheduler(12, 0.5, 0.4)
	met := obs.NewMetrics()
	svc, err := New(Config{
		Scheduler: ts, CacheSize: 8, MaxInFlight: 2, MaxQueue: -1, Rec: met,
	})
	if err != nil {
		t.Fatal(err)
	}
	trees := make([]*plan.TaskTree, 4)
	for i := range trees {
		trees[i] = testTree(t, int64(801+i), 3+i%2)
	}

	var (
		wg       sync.WaitGroup
		attempts atomic.Int64
		stopped  atomic.Bool // cache hits outlive Close, so ErrClosed alone can't end the loop
		bad      = make(chan error, workers)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stopped.Load(); i++ {
				attempts.Add(1)
				_, err := svc.Schedule(context.Background(), trees[(w+i)%len(trees)])
				switch {
				case err == nil, errors.Is(err, ErrOverloaded), errors.Is(err, ErrClosed):
					continue
				default:
					bad <- err
					return
				}
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond) // let leaders, hits, and coalesces mix
	svc.Close()                       // races spawnGroup on in-flight singletons
	stopped.Store(true)
	wg.Wait()
	close(bad)
	for err := range bad {
		t.Fatalf("hammer request failed with unclassified error: %v", err)
	}

	cs := met.Snapshot().Counters
	sum := cs["serve.delivered"] + cs["serve.rejected"] + cs["serve.cancelled"] +
		cs["serve.closed_rejects"] + cs["serve.failed"]
	if cs["serve.requests"] != sum {
		t.Fatalf("serve.requests = %d, outcome classes sum to %d (counters: %v)",
			cs["serve.requests"], sum, cs)
	}
	if cs["serve.requests"] != attempts.Load() {
		t.Fatalf("serve.requests = %d, hammer sent %d", cs["serve.requests"], attempts.Load())
	}
	if cs["serve.failed"] != 0 {
		t.Fatalf("serve.failed = %d, want 0", cs["serve.failed"])
	}
	if svc.InFlight() != 0 {
		t.Fatalf("%d requests still in flight after Close", svc.InFlight())
	}
}
