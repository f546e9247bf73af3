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
// templates at P = 128) keeps reaching it. A reset changes nothing
// observable except timing; every answer is recomputed from the same
// pure functions.
const cacheMapLimit = 1 << 14

// Cache memoizes a Model's cost derivations under canonical struct
// keys: Cost by the OpSpec value itself and BoundTerm by (spec, f, P,
// ε). Both underlying computations are pure functions of their keys, so
// a cached answer is bit-identical to a fresh one — the scheduler
// identity tests pin this — and the cache can be shared freely across
// phases, trees, batch entries, and concurrent scheduling calls (all
// methods are safe for concurrent use). Degrees and T^par are not
// memoized: the scheduler reads an operator's cost once per priced tree
// and derives the rest from it, NOpt's search taking about 15 T^par
// evaluations, no more than a probe of a degree map keyed by spec, f, P,
// ε and cap under the shared lock. DegreeCapped and Clones, which read
// the cached cost and compute the rest, remain for the frozen
// bench/probe.go.
type Cache struct {
	model Model

	mu     sync.RWMutex
	costs  map[OpSpec]OpCost
	bounds map[boundKey]boundTerm

	hits   atomic.Int64
	misses atomic.Int64
}

// boundKey identifies one BoundTerm computation: the spec (which pins
// the cost vector) plus every parameter the uncapped degree reads.
type boundKey struct {
	spec OpSpec
	f    float64
	p    int
	ov   resource.Overlap
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
		model:  m,
		costs:  make(map[OpSpec]OpCost),
		bounds: make(map[boundKey]boundTerm),
	}
}

// Model returns the underlying (uncached) model.
func (c *Cache) Model() Model { return c.model }

// Stats reports the cumulative hit and miss counts across both memo
// maps, for tests and capacity tuning.
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

// DegreeCapped is Model.DegreeCapped over the cached cost of the spec.
// It takes the spec rather than an OpCost because the cost is itself a
// pure function of the spec. The scheduler derives degrees from the cost
// it has already read.
//
// Deprecated: kept for the frozen bench/probe.go (ROADMAP 1a).
func (c *Cache) DegreeCapped(spec OpSpec, f float64, p int, ov resource.Overlap, cap int) int {
	return c.model.DegreeCapped(c.Cost(spec), f, p, ov, cap)
}

// Clones is Model.Split over the cached cost of the spec: the EA1 split
// as two vectors, not one per clone. The scheduler splits the cost it
// has already read.
//
// Deprecated: kept for the frozen bench/probe.go (ROADMAP 1a).
func (c *Cache) Clones(spec OpSpec, n int) CloneWork {
	return c.model.Split(c.Cost(spec), n)
}

// BoundTerm returns the operator's two OPTBOUND ingredients — the
// zero-communication processing vector and T^par at the best uncapped
// CG_f degree — memoized by (spec, f, P, ε). Both values come from the
// same Cost/Degree/TPar evaluations the unmemoized bound uses,
// so a memoized term is bit-identical to a fresh one. The returned
// vector is shared across callers and must be treated as read-only.
func (c *Cache) BoundTerm(spec OpSpec, f float64, p int, ov resource.Overlap) (vector.Vector, float64) {
	k := boundKey{spec: spec, f: f, p: p, ov: ov}
	c.mu.RLock()
	bt, ok := c.bounds[k]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return bt.proc, bt.tpar
	}
	c.misses.Add(1)
	cost := c.Cost(spec)
	n := c.model.Degree(cost, f, p, ov)
	bt = boundTerm{proc: cost.Processing, tpar: c.model.TPar(cost, n, ov)}
	c.mu.Lock()
	if len(c.bounds) >= cacheMapLimit {
		clear(c.bounds)
	}
	c.bounds[k] = bt
	c.mu.Unlock()
	return bt.proc, bt.tpar
}
