// The serve-layer schedule cache: a bounded LRU of completed schedules
// keyed by plan fingerprint, with singleflight deduplication so N
// concurrent requests for the same plan compute it once.
//
// Correctness rests on two invariants established elsewhere:
//
//   - Equal fingerprints imply byte-identical schedules
//     (sched.TreeScheduler.Fingerprint covers every input TreeSchedule
//     reads, pinned by the fingerprint identity tests).
//
//   - A completed *sched.Schedule is immutable by convention (see the
//     Schedule doc), so one cached schedule may be handed to any number
//     of concurrent readers.
//
// Cache misses are always scheduled as singleton groups, bypassing the
// batching window: a batched schedule depends on the accidental
// companions sharing its window, so only the batch-independent
// singleton form is deterministic per fingerprint and safe to replay to
// future requests.
//
// Concurrency. One mutex guards the entries, the recency list and the
// flights, so eviction always takes the true least recently used entry:
// the list's tail. Every critical section is a map lookup plus a list
// splice; no schedule is computed under the lock.
package serve

import (
	"container/list"
	"sync"

	"mdrs/internal/plan"
	"mdrs/internal/sched"
)

// flight is one in-progress computation of a fingerprint's schedule.
// The leader closes done after filling s or err; followers wait.
type flight struct {
	done chan struct{}
	s    *sched.Schedule
	tree *plan.TaskTree
	err  error
}

// cacheEntry pairs a fingerprint with its schedule and the tree it was
// computed from. group is the ready-made singleton Result.Group shared
// by every hit — immutable, so handing one slice to all readers is
// safe and saves an allocation per hit.
type cacheEntry struct {
	fp    sched.Fingerprint
	s     *sched.Schedule
	tree  *plan.TaskTree
	group []*plan.TaskTree
}

// schedCache is the bounded LRU plus the singleflight table. A nil
// *schedCache (caching disabled) is inert: get misses, Len is 0.
type schedCache struct {
	cap       int
	mu        sync.Mutex
	lru       *list.List // front = most recently used; values are *cacheEntry
	entries   map[sched.Fingerprint]*list.Element
	flights   map[sched.Fingerprint]*flight
	evictions int64
}

func newSchedCache(capacity int) *schedCache {
	if capacity <= 0 {
		return nil
	}
	return &schedCache{
		cap:     capacity,
		lru:     list.New(),
		entries: make(map[sched.Fingerprint]*list.Element),
		flights: make(map[sched.Fingerprint]*flight),
	}
}

// get returns the cached entry and marks it most recently used.
func (c *schedCache) get(fp sched.Fingerprint) *cacheEntry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[fp]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

// put inserts a completed schedule, evicting the least recently used
// entry past capacity. Reports the number of evictions (0 or 1).
func (c *schedCache) put(fp sched.Fingerprint, s *sched.Schedule, tree *plan.TaskTree) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[fp]; ok {
		// A racing leader already filled it; keep the existing entry
		// (byte-identical by the fingerprint invariant).
		c.lru.MoveToFront(el)
		return 0
	}
	c.entries[fp] = c.lru.PushFront(&cacheEntry{
		fp: fp, s: s, tree: tree,
		group: []*plan.TaskTree{tree},
	})
	if c.lru.Len() <= c.cap {
		return 0
	}
	tail := c.lru.Back()
	c.lru.Remove(tail)
	delete(c.entries, tail.Value.(*cacheEntry).fp)
	c.evictions++
	return 1
}

// Len reports the number of cached schedules.
func (c *schedCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// evictionCount reports the cache's own eviction total, which the
// serve.cache_evictions counter is checked against in tests.
func (c *schedCache) evictionCount() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// flightFor joins or starts the fingerprint's flight. leader is true
// when the caller must compute the schedule and then resolve the
// flight; otherwise the caller waits on the returned flight's done.
func (c *schedCache) flightFor(fp sched.Fingerprint) (fl *flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fl, ok := c.flights[fp]; ok {
		return fl, false
	}
	fl = &flight{done: make(chan struct{})}
	c.flights[fp] = fl
	return fl, true
}

// resolve publishes the leader's outcome to the flight's followers and
// retires the flight, so the next request for the fingerprint starts
// fresh (after checking the LRU, which resolve's caller fills first on
// success).
func (c *schedCache) resolve(fp sched.Fingerprint, fl *flight, s *sched.Schedule, tree *plan.TaskTree, err error) {
	c.mu.Lock()
	delete(c.flights, fp)
	c.mu.Unlock()
	fl.s, fl.tree, fl.err = s, tree, err
	close(fl.done)
}
