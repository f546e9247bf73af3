package engine

import (
	"runtime"
	"sync"
)

// arena is a Run-scoped free list of tuple and int32 buffers: the
// partition backings, scattered key columns, flat-table arrays, and
// per-clone result buffers of one execution all come from (and return
// to) it, so a J-join plan stops allocating O(tuples) per operator and
// a warm run settles at a handful of allocations.
//
// The arena is single-owner: only the run's coordinating goroutine
// calls get/put (clone bodies receive pre-carved buffers and never
// touch the free lists), so no locking is needed. Arenas themselves
// are recycled across runs through getArena/putArena.
type arena struct {
	tupleFree [][]Tuple
	intFree   [][]int32

	// reuses/allocs count buffer requests served from the free lists
	// vs freshly allocated, reset at the end of every run after the
	// engine flushes them to its recorder.
	reuses int64
	allocs int64
}

// idle holds the arenas no run is using, at most GOMAXPROCS of them
// (more runs than that gain nothing from running at once). It is a
// plain free list and not a sync.Pool, which loses what it is there to
// keep: a Pool is emptied by every second garbage collection and hides
// an item put back on one P from a Get on another, and a query that
// generates or loads its data between two runs collects and migrates
// all the time — with a Pool, four runs in ten of a run-after-generate
// loop started on a brand-new arena and allocated every buffer again.
// The price is that an arena's buffers stay allocated for the life of
// the process.
var idle struct {
	sync.Mutex
	arenas []*arena
}

// getArena hands out an idle arena, or a new one.
func getArena() *arena {
	idle.Lock()
	defer idle.Unlock()
	n := len(idle.arenas)
	if n == 0 {
		return new(arena)
	}
	a := idle.arenas[n-1]
	idle.arenas[n-1] = nil
	idle.arenas = idle.arenas[:n-1]
	return a
}

// putArena takes back the arena of a finished run.
func putArena(a *arena) {
	idle.Lock()
	defer idle.Unlock()
	if len(idle.arenas) < runtime.GOMAXPROCS(0) {
		idle.arenas = append(idle.arenas, a)
	}
}

// roundUpPow2 rounds n up to a power of two so buffers recycle across
// operators with slightly different sizes instead of fragmenting the
// free lists into near-miss capacities.
func roundUpPow2(n int) int {
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// getTuples returns a length-n tuple buffer, preferring the smallest
// adequate free buffer. Contents are unspecified (callers overwrite).
func (a *arena) getTuples(n int) []Tuple {
	best := -1
	for i, b := range a.tupleFree {
		if cap(b) >= n && (best < 0 || cap(b) < cap(a.tupleFree[best])) {
			best = i
		}
	}
	if best >= 0 {
		b := a.tupleFree[best]
		last := len(a.tupleFree) - 1
		a.tupleFree[best] = a.tupleFree[last]
		a.tupleFree[last] = nil
		a.tupleFree = a.tupleFree[:last]
		a.reuses++
		return b[:n]
	}
	a.allocs++
	return make([]Tuple, n, roundUpPow2(n))
}

// putTuples returns a buffer to the free list. Nil and zero-capacity
// buffers are dropped.
func (a *arena) putTuples(b []Tuple) {
	if cap(b) == 0 {
		return
	}
	a.tupleFree = append(a.tupleFree, b[:0])
}

// getInt32 is getTuples for int32 scratch (partition counts, scattered
// keys, flat-table arrays). Contents are unspecified.
func (a *arena) getInt32(n int) []int32 {
	best := -1
	for i, b := range a.intFree {
		if cap(b) >= n && (best < 0 || cap(b) < cap(a.intFree[best])) {
			best = i
		}
	}
	if best >= 0 {
		b := a.intFree[best]
		last := len(a.intFree) - 1
		a.intFree[best] = a.intFree[last]
		a.intFree[last] = nil
		a.intFree = a.intFree[:last]
		a.reuses++
		return b[:n]
	}
	a.allocs++
	return make([]int32, n, roundUpPow2(n))
}

// putInt32 returns an int32 buffer to the free list.
func (a *arena) putInt32(b []int32) {
	if cap(b) == 0 {
		return
	}
	a.intFree = append(a.intFree, b[:0])
}

// resetStats zeroes the reuse/alloc tallies before the arena goes back
// to the pool, so the next run's deltas start clean.
func (a *arena) resetStats() { a.reuses, a.allocs = 0, 0 }
