package query

import (
	"errors"
	"fmt"
	"math/bits"
)

// MaxEnumerateRelations bounds EnumerateBushy: the number of distinct
// bushy plans over n relations is n-th in the sequence 1, 2, 12, 120,
// 1680, 30240, … (T(n) = Σ C(n,k)·T(k)·T(n−k) over proper splits), so
// past eight relations a full materialized enumeration is no longer a
// candidate pool but a memory bomb. Callers wanting larger joins sample
// instead, or stream with EnumerateBushyFunc, whose pruned subset DP
// holds only surviving subtrees and is bounded by MaxStreamRelations.
const MaxEnumerateRelations = 8

// MaxStreamRelations bounds EnumerateBushyFunc. Streaming never
// materializes the T(n) roots — each is yielded and released — but the
// subset DP still stores every *surviving* proper subtree, so the
// practical ceiling depends on how aggressively the caller's prune hook
// cuts. Ten relations keeps the unpruned enumeration ordinals well
// inside int64 (T(10) ≈ 1.76e10) and matches the optimizer's streaming
// search target.
const MaxStreamRelations = 10

// validateEnumerate checks the relations against the caller's
// relation-count ceiling max.
func validateEnumerate(rels []*Relation, max int) error {
	if len(rels) == 0 {
		return errors.New("query: no relations")
	}
	if len(rels) > max {
		return fmt.Errorf("query: %d relations exceed the %d-relation enumeration bound",
			len(rels), max)
	}
	for _, rel := range rels {
		if rel == nil || rel.Tuples <= 0 {
			return errors.New("query: invalid relation")
		}
	}
	return nil
}

// CountBushy returns T(n), the number of distinct bushy hash-join plans
// over n relations, computed from the recurrence
// T(n) = Σ_{k=1}^{n-1} C(n,k)·T(k)·T(n−k) with T(1) = 1. It returns 0
// for n outside [1, MaxStreamRelations]; T(10) = 17 643 225 600 still
// fits int64 comfortably, but the recurrence overflows quickly beyond
// the enumerable range and no caller needs it there.
func CountBushy(n int) int64 {
	if n < 1 || n > MaxStreamRelations {
		return 0
	}
	return bushyCounts(n)[n]
}

// bushyCounts returns T(0..n) (T(0) unused, left 0) via the recurrence.
func bushyCounts(n int) []int64 {
	t := make([]int64, n+1)
	if n >= 1 {
		t[1] = 1
	}
	for m := 2; m <= n; m++ {
		// C(m,k) built incrementally: C(m,0)=1, C(m,k) = C(m,k-1)·(m-k+1)/k.
		binom := int64(1)
		var sum int64
		for k := 1; k < m; k++ {
			binom = binom * int64(m-k+1) / int64(k)
			sum += binom * t[k] * t[m-k]
		}
		t[m] = sum
	}
	return t
}

// EnumerateBushy returns every distinct bushy hash-join plan over the
// given relations: all ways to split the relation set into an outer
// (probe-side) and inner (build-side) subtree, recursively. Build/probe
// sidedness counts — R0⋈R1 with R0 as build differs from R1 as build —
// so two relations yield two plans, three yield twelve, four yield 120.
//
// The order is deterministic: subsets are enumerated as ascending
// bitmasks over the relation list, outer-subset splits in descending
// submask order, and subtree combinations outer-major. Plans share
// PlanNode subtrees structurally (the expansion and scheduling layers
// only read plans); callers must not mutate the returned trees.
//
// Errors mirror PlanOver's validation plus the MaxEnumerateRelations
// guard. It is EnumerateBushyFunc with no prune hook, collected.
func EnumerateBushy(rels []*Relation) ([]*PlanNode, error) {
	if err := validateEnumerate(rels, MaxEnumerateRelations); err != nil {
		return nil, err
	}
	plans := make([]*PlanNode, 0, CountBushy(len(rels)))
	err := EnumerateBushyFunc(rels, nil, func(p *PlanNode, _ int64) error {
		plans = append(plans, p)
		return nil
	})
	return plans, err
}

// streamNode pairs a surviving subtree with its ordinal in the unpruned
// enumeration of its subset mask, so full plans keep their original
// EnumerateBushy indices even when pruning has thinned the DP tables.
type streamNode struct {
	node *PlanNode
	ord  int64
}

// EnumerateBushyFunc streams the exact EnumerateBushy sequence through
// yield instead of materializing it: yield receives each full plan
// together with its ordinal in the unpruned enumeration (the index the
// same plan has in EnumerateBushy's result), in the same deterministic
// order. Root plans are released as soon as yield returns, so peak
// memory is the caller's frontier plus the subset DP's surviving proper
// subtrees — not the T(n) roots.
//
// prune, when non-nil, is consulted once per freshly built proper
// subtree (full plans are never offered to it); returning true discards
// the subtree, and with it every plan that would have contained that
// exact subtree. Pruning is the caller's exactness contract: a hook
// that only discards subtrees provably unable to appear in any
// acceptable plan keeps the yielded stream's ordinals and order
// identical to a subsequence of the materialized enumeration. A nil
// prune yields exactly the EnumerateBushy sequence.
//
// A non-nil error from yield aborts the enumeration immediately and is
// returned verbatim. Validation errors mirror EnumerateBushy's with the
// larger MaxStreamRelations ceiling.
func EnumerateBushyFunc(rels []*Relation, prune func(*PlanNode) bool, yield func(*PlanNode, int64) error) error {
	if yield == nil {
		return errors.New("query: nil yield func")
	}
	if err := validateEnumerate(rels, MaxStreamRelations); err != nil {
		return err
	}
	n := len(rels)
	full := (1 << n) - 1
	counts := bushyCounts(n)
	trees := make([][]streamNode, full+1)
	for i, rel := range rels {
		trees[1<<i] = []streamNode{{node: &PlanNode{Relation: rel, Tuples: rel.Tuples}}}
	}
	if n == 1 {
		return yield(trees[1][0].node, 0)
	}
	for mask := 1; mask <= full; mask++ {
		k := bits.OnesCount(uint(mask))
		if k < 2 {
			continue
		}
		isFull := mask == full
		var out []streamNode
		if !isFull && prune == nil {
			out = make([]streamNode, 0, counts[k])
		}
		// base tracks how many unpruned trees precede the current
		// (sub, inner) block in the materialized order, so each kept
		// subtree's ordinal is exact regardless of pruning.
		var base int64
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			inner := mask &^ sub
			cntInner := counts[bits.OnesCount(uint(inner))]
			for _, o := range trees[sub] {
				rowBase := base + o.ord*cntInner
				for _, in := range trees[inner] {
					t := o.node.Tuples
					if in.node.Tuples > t {
						t = in.node.Tuples
					}
					node := &PlanNode{Outer: o.node, Inner: in.node, Tuples: t}
					ord := rowBase + in.ord
					if isFull {
						if err := yield(node, ord); err != nil {
							return err
						}
						continue
					}
					if prune != nil && prune(node) {
						continue
					}
					out = append(out, streamNode{node: node, ord: ord})
				}
			}
			base += counts[bits.OnesCount(uint(sub))] * cntInner
		}
		if !isFull {
			trees[mask] = out
		}
	}
	return nil
}

// FirstBushy builds the first plan EnumerateBushy and EnumerateBushyFunc
// would emit, directly in O(n): the left-deep chain whose probe spine
// descends through the relations in reverse list order, with each
// remaining relation joined in as the build side (the enumeration's
// first outer submask always excludes the lowest set bit). It gives
// streaming searches a well-defined candidate 0 — an incumbent seed —
// without enumerating anything. FirstBushy accepts any relation count
// ≥ 1; only full enumeration is ceiling-bounded.
func FirstBushy(rels []*Relation) (*PlanNode, error) {
	if len(rels) == 0 {
		return nil, errors.New("query: no relations")
	}
	for _, rel := range rels {
		if rel == nil || rel.Tuples <= 0 {
			return nil, errors.New("query: invalid relation")
		}
	}
	n := len(rels)
	node := &PlanNode{Relation: rels[n-1], Tuples: rels[n-1].Tuples}
	for i := n - 2; i >= 0; i-- {
		in := &PlanNode{Relation: rels[i], Tuples: rels[i].Tuples}
		t := node.Tuples
		if in.Tuples > t {
			t = in.Tuples
		}
		node = &PlanNode{Outer: node, Inner: in, Tuples: t}
	}
	return node, nil
}
