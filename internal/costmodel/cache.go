package costmodel

import (
	"sync"
	"sync/atomic"

	"mdrs/internal/resource"
	"mdrs/internal/vector"
)

// cacheMapLimit bounds each memo map of a Cache: when a map reaches the
// limit it is reset wholesale — the next lookups repopulate it — rather
// than growing without bound. Queries drawn from one catalog repeat
// their cardinalities and stay far below it, but a wide template
// population does not: the harness's schedule_miss workload (2,048
// templates at P = 128) keeps reaching it, and its traced
// costmodel.memo_hit_rate reads about 0.46. A reset changes nothing
// observable except timing; every answer is recomputed from the same
// pure functions.
const cacheMapLimit = 1 << 14

// Cache memoizes a Model's cost derivations under canonical struct
// keys: Cost by the OpSpec value itself, Degree by (spec, f, P, ε, cap),
// Clones by (spec, N) and BoundTerm by (spec, f, P, ε). All four
// underlying computations are pure functions of their keys, so a cached
// answer is bit-identical to a fresh one — the scheduler identity tests
// pin this — and the cache can be shared freely across phases, trees,
// batch entries, and concurrent scheduling calls (all methods are safe
// for concurrent use).
//
// Clone slices are shared between callers: the returned []vector.Vector
// and the vectors inside it must be treated as read-only. Schedules
// keep them as OpPlacement.Clones; placement only reads them.
type Cache struct {
	model Model

	mu      sync.RWMutex
	costs   map[OpSpec]OpCost
	degrees map[degreeKey]int
	clones  map[clonesKey][]vector.Vector
	bounds  map[degreeKey]boundTerm

	hits   atomic.Int64
	misses atomic.Int64
}

// degreeKey identifies one Degree computation: the spec (which pins the
// cost vector) plus every parameter DegreeCapped reads, including the
// absolute parallelism cap (0 = uncapped) — two callers with different
// caps must never share a memoized answer.
type degreeKey struct {
	spec OpSpec
	f    float64
	p    int
	ov   resource.Overlap
	cap  int
}

// clonesKey identifies one Clones computation.
type clonesKey struct {
	spec OpSpec
	n    int
}

// boundTerm is the memoized per-operator OPTBOUND contribution: the
// zero-communication processing vector (the operator's addend to the
// total-work term l(S)/P) and T^par at the best uncapped CG_f degree
// (its addend to the critical-path term).
type boundTerm struct {
	proc vector.Vector
	tpar float64
}

// NewCache returns an empty memo over the given model.
func NewCache(m Model) *Cache {
	return &Cache{
		model:   m,
		costs:   make(map[OpSpec]OpCost),
		degrees: make(map[degreeKey]int),
		clones:  make(map[clonesKey][]vector.Vector),
		bounds:  make(map[degreeKey]boundTerm),
	}
}

// Cached returns a fresh memo wrapper over the model.
func (m Model) Cached() *Cache { return NewCache(m) }

// Model returns the underlying (uncached) model.
func (c *Cache) Model() Model { return c.model }

// Stats reports the cumulative hit and miss counts across all four
// memo maps, for tests and capacity tuning.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Cost is Model.Cost memoized by the spec value.
func (c *Cache) Cost(spec OpSpec) OpCost {
	c.mu.RLock()
	cost, ok := c.costs[spec]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return cost
	}
	c.misses.Add(1)
	cost = c.model.Cost(spec)
	c.mu.Lock()
	if len(c.costs) >= cacheMapLimit {
		clear(c.costs)
	}
	c.costs[spec] = cost
	c.mu.Unlock()
	return cost
}

// Degree is Model.Degree memoized by (spec, f, P, ε). It takes the spec
// rather than an OpCost because the cost is itself a pure function of
// the spec; the memo covers the NOpt scan inside Degree, which is the
// expensive part of preparing an operator.
func (c *Cache) Degree(spec OpSpec, f float64, p int, ov resource.Overlap) int {
	return c.DegreeCapped(spec, f, p, ov, 0)
}

// DegreeCapped is Model.DegreeCapped memoized by (spec, f, P, ε, cap).
// The cap participates in the key, so answers computed under different
// parallelism caps never alias.
func (c *Cache) DegreeCapped(spec OpSpec, f float64, p int, ov resource.Overlap, cap int) int {
	if cap < 0 {
		cap = 0
	}
	k := degreeKey{spec: spec, f: f, p: p, ov: ov, cap: cap}
	c.mu.RLock()
	n, ok := c.degrees[k]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return n
	}
	c.misses.Add(1)
	n = c.model.DegreeCapped(c.Cost(spec), f, p, ov, cap)
	c.mu.Lock()
	if len(c.degrees) >= cacheMapLimit {
		clear(c.degrees)
	}
	c.degrees[k] = n
	c.mu.Unlock()
	return n
}

// Clones is Model.Clones memoized by (spec, N). The returned slice and
// its vectors are shared across callers and must not be mutated.
func (c *Cache) Clones(spec OpSpec, n int) []vector.Vector {
	k := clonesKey{spec: spec, n: n}
	c.mu.RLock()
	out, ok := c.clones[k]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return out
	}
	c.misses.Add(1)
	out = c.model.Clones(c.Cost(spec), n)
	c.mu.Lock()
	if len(c.clones) >= cacheMapLimit {
		clear(c.clones)
	}
	c.clones[k] = out
	c.mu.Unlock()
	return out
}

// BoundTerm returns the operator's two OPTBOUND ingredients — the
// zero-communication processing vector and T^par at the best uncapped
// CG_f degree — memoized by (spec, f, P, ε). Both values come from the
// same cached Cost/Degree/TPar evaluations the unmemoized bound uses,
// so a memoized term is bit-identical to a fresh one. The returned
// vector is shared across callers and must be treated as read-only.
func (c *Cache) BoundTerm(spec OpSpec, f float64, p int, ov resource.Overlap) (vector.Vector, float64) {
	k := degreeKey{spec: spec, f: f, p: p, ov: ov}
	c.mu.RLock()
	bt, ok := c.bounds[k]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return bt.proc, bt.tpar
	}
	c.misses.Add(1)
	n := c.Degree(spec, f, p, ov)
	bt = boundTerm{proc: c.Cost(spec).Processing, tpar: c.TPar(spec, n, ov)}
	c.mu.Lock()
	if len(c.bounds) >= cacheMapLimit {
		clear(c.bounds)
	}
	c.bounds[k] = bt
	c.mu.Unlock()
	return bt.proc, bt.tpar
}

// TPar evaluates Model.TPar over the cached cost of the spec. The
// closed-form evaluation is a handful of flops — cheaper than a memo
// probe — so only the cost lookup is cached.
func (c *Cache) TPar(spec OpSpec, n int, ov resource.Overlap) float64 {
	return c.model.TPar(c.Cost(spec), n, ov)
}
