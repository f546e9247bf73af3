package opt

import (
	"fmt"
	"math"

	"mdrs/internal/costmodel"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
	"mdrs/internal/vector"
)

// SubtreeBounds computes OPTBOUND lower bounds for plan subtrees
// incrementally, without expanding them into operator trees: each
// subtree's annotation is composed from its children's in O(1) operator
// evaluations and memoized by node identity, so the streaming
// enumeration's subset DP — where one surviving subtree appears in many
// candidates — prices every subtree exactly once.
//
// The composition mirrors plan.Expand + Bound term by term. A plan node
// expands to operators whose specs depend only on the node (see
// plan.ScanSpec/BuildSpec/ProbeSpec) and to a task tree in which every
// join contributes one blocking build task below its probe. The
// annotation therefore carries:
//
//   - work: the sum of all zero-communication processing vectors in the
//     subtree (the congestion numerator l(S));
//   - rootTaskMax: the worst T^par inside the subtree's root task — the
//     root probe and the probe spine it pipelines with;
//   - belowCP: the critical path, in task time, strictly below the root
//     task.
//
// A join (outer O, inner I) then composes exactly as the expansion
// tasks do: the new probe joins O's root task; the new build forms a
// task with I's root; so
//
//	rootTaskMax' = max(T^par(probe), rootTaskMax(O))
//	belowCP'     = max(belowCP(O), max(T^par(build), rootTaskMax(I)) + belowCP(I))
//	bound        = max(l(work)/P, rootTaskMax' + belowCP')
//
// Both OPTBOUND terms are monotone under this composition — work only
// accumulates and the critical path only extends — so a subtree's bound
// is a valid lower bound on the bound (and hence the scheduled
// response) of every plan containing it. That monotonicity is what
// makes discarding a subtree against an incumbent response exact.
//
// At a full plan's root the composed value equals Bound up to
// floating-point summation order: the congestion sum here accumulates
// in subtree order rather than task order, so the two can differ in the
// last ulps. Exactness-critical callers treat composed bounds as prune
// references only (strict comparisons against achieved responses) and
// keep reported bounds from BoundCached where bit-identity matters.
//
// SubtreeBounds is not safe for concurrent use; the streaming search
// walks the enumeration serially.
type SubtreeBounds struct {
	cache *costmodel.Cache
	ov    resource.Overlap
	p     int
	f     float64
	memo  map[*query.PlanNode]subtreeAnnot

	// terms counts operator-spec evaluations (memo misses compose one
	// join = 2 evaluations, a leaf = 1), for tests and ledgers.
	terms int64
}

// subtreeAnnot is the composable OPTBOUND state of one plan subtree.
type subtreeAnnot struct {
	work        vector.Vector
	rootTaskMax float64
	belowCP     float64
	bound       float64
}

// NewSubtreeBounds validates the system parameters and returns an empty
// composer over the shared cost memo.
func NewSubtreeBounds(c *costmodel.Cache, ov resource.Overlap, p int, f float64) (*SubtreeBounds, error) {
	if c == nil {
		return nil, fmt.Errorf("opt: nil cost cache")
	}
	if p <= 0 {
		return nil, fmt.Errorf("opt: non-positive site count %d", p)
	}
	if !(f >= 0) || math.IsInf(f, 1) {
		return nil, fmt.Errorf("opt: granularity parameter f = %g, want finite and non-negative", f)
	}
	return &SubtreeBounds{
		cache: c,
		ov:    ov,
		p:     p,
		f:     f,
		memo:  make(map[*query.PlanNode]subtreeAnnot),
	}, nil
}

// Bound returns the subtree's OPTBOUND lower bound, memoizing the
// annotation by node identity. Use it for DP subtrees that recur across
// candidates.
func (b *SubtreeBounds) Bound(n *query.PlanNode) float64 {
	return b.annot(n).bound
}

// BoundOnce prices n without memoizing n itself (children still hit the
// memo). Streaming searches use it for full-plan roots, which are seen
// exactly once — memoizing them would grow the table by T(n).
func (b *SubtreeBounds) BoundOnce(n *query.PlanNode) float64 {
	if a, ok := b.memo[n]; ok {
		return a.bound
	}
	return b.compose(n).bound
}

// Terms reports how many operator-spec evaluations the composer has
// performed (a proxy for distinct subtrees priced).
func (b *SubtreeBounds) Terms() int64 { return b.terms }

func (b *SubtreeBounds) annot(n *query.PlanNode) subtreeAnnot {
	if a, ok := b.memo[n]; ok {
		return a
	}
	a := b.compose(n)
	b.memo[n] = a
	return a
}

// compose builds n's annotation from its children's memoized ones.
func (b *SubtreeBounds) compose(n *query.PlanNode) subtreeAnnot {
	if n.IsLeaf() {
		proc, t := b.cache.BoundTerm(plan.ScanSpec(n), b.f, b.p, b.ov)
		b.terms++
		return subtreeAnnot{
			work:        proc.Clone(),
			rootTaskMax: t,
			bound:       math.Max(proc.Length()/float64(b.p), t),
		}
	}
	o := b.annot(n.Outer)
	i := b.annot(n.Inner)
	bProc, bT := b.cache.BoundTerm(plan.BuildSpec(n), b.f, b.p, b.ov)
	pProc, pT := b.cache.BoundTerm(plan.ProbeSpec(n), b.f, b.p, b.ov)
	b.terms += 2

	work := o.work.Clone()
	work.AddInPlace(i.work)
	work.AddInPlace(bProc)
	work.AddInPlace(pProc)

	rootMax := math.Max(pT, o.rootTaskMax)
	buildTask := math.Max(bT, i.rootTaskMax) + i.belowCP
	below := math.Max(o.belowCP, buildTask)

	return subtreeAnnot{
		work:        work,
		rootTaskMax: rootMax,
		belowCP:     below,
		bound:       math.Max(work.Length()/float64(b.p), rootMax+below),
	}
}
