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

// fpWithPrefix fabricates a fingerprint landing in shard prefix&(shards-1).
func fpWithPrefix(prefix byte, salt byte) sched.Fingerprint {
	var fp sched.Fingerprint
	fp[0] = prefix
	fp[1] = salt
	return fp
}

// The sharded cache must spread the key space by fingerprint prefix,
// keep Len() equal to the sum of per-shard lengths, and evict the
// globally oldest entry regardless of which shard holds it.
func TestCacheShardDistributionAndGlobalLRU(t *testing.T) {
	c := newSchedCache(4)
	tree := &plan.TaskTree{}
	// Eight entries with distinct prefixes: one per shard, inserted in
	// stamp order 0..7. Capacity 4 ⇒ the four oldest (prefixes 0..3)
	// are evicted as the later ones arrive.
	for i := byte(0); i < 8; i++ {
		c.put(fpWithPrefix(i, 0), nil, tree)
	}
	if got := c.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4 (bounded)", got)
	}
	lens := c.shardLens()
	sum, populated := 0, 0
	for _, n := range lens {
		sum += n
		if n > 0 {
			populated++
		}
	}
	if sum != c.Len() {
		t.Fatalf("shardLens sum to %d, Len is %d", sum, c.Len())
	}
	if populated != 4 {
		t.Fatalf("%d shards populated, want 4 (one entry each): %v", populated, lens)
	}
	if got := c.evictionCount(); got != 4 {
		t.Fatalf("evictionCount = %d, want 4", got)
	}
	for i := byte(0); i < 8; i++ {
		e := c.get(fpWithPrefix(i, 0))
		if want := i >= 4; (e != nil) != want {
			t.Fatalf("prefix %d cached=%v, want %v (global LRU order)", i, e != nil, want)
		}
	}

	// Touch the otherwise-oldest survivor, then overflow: the victim
	// must be the globally least-recently-touched entry (prefix 5), not
	// the newly touched one — cross-shard recency is respected.
	c.get(fpWithPrefix(4, 0))
	c.put(fpWithPrefix(9, 0), nil, tree)
	if c.get(fpWithPrefix(5, 0)) != nil {
		t.Fatal("globally oldest entry (prefix 5) survived eviction")
	}
	if c.get(fpWithPrefix(4, 0)) == nil {
		t.Fatal("freshly touched entry (prefix 4) was evicted")
	}

	// Same-shard collisions stay independent entries.
	c2 := newSchedCache(8)
	for i := byte(0); i < 3; i++ {
		c2.put(fpWithPrefix(7, i), nil, tree)
	}
	if got := c2.shardLens()[7&(cacheShards-1)]; got != 3 {
		t.Fatalf("shard 7 holds %d entries, want 3", got)
	}
}

// The service-level eviction counter must agree with the cache's own
// sharded accounting.
func TestCacheEvictionCounterMatchesShardAccounting(t *testing.T) {
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
		t.Fatalf("shard accounting says %d evictions, counter says %d", got, counted)
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

	// Two invalid submissions: counted as serve.invalid only.
	if _, err := svc.Schedule(ctx, nil); err == nil {
		t.Fatal("nil tree accepted")
	}
	if _, err := svc.Schedule(ctx, &plan.TaskTree{}); err == nil {
		t.Fatal("empty tree accepted")
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
	if cs["serve.invalid"] != 2 {
		t.Fatalf("serve.invalid = %d, want 2", cs["serve.invalid"])
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
