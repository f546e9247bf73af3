package opt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mdrs/internal/costmodel"
	"mdrs/internal/query"
	"mdrs/internal/resource"
)

func subtreeRels(n int) []*query.Relation {
	rels := make([]*query.Relation, n)
	for i := range rels {
		rels[i] = &query.Relation{Name: string(rune('A' + i)), Tuples: 1000 * (i*i + 1)}
	}
	return rels
}

// The composed root bound must agree with the full task-tree OPTBOUND
// on every plan — the only admissible difference is the floating-point
// summation order of the congestion term, held to 1e-9 relative. The
// inputs are the fixed catalogs of subtreeRels at P = 16, every plan of
// each, and seeded random catalogs of 2–7 relations (tuple counts in the
// paper's 10³–10⁵) at P = 10, 64 and 128: every plan up to 4 relations,
// 40 random bushy plans beyond. The largest relative gap observed over
// the generated catalogs is 5.5e-16, a few ulps.
func TestSubtreeBoundMatchesFullBound(t *testing.T) {
	cache := costmodel.NewCache(costmodel.Default())
	ov := resource.MustOverlap(0.5)
	const f = 0.7
	worst := 0.0
	check := func(name string, p int, plans []*query.PlanNode) {
		sb, err := NewSubtreeBounds(cache, ov, p, f)
		if err != nil {
			t.Fatal(err)
		}
		for i, pl := range plans {
			want, err := BoundCached(taskTree(t, pl), cache, ov, p, f)
			if err != nil {
				t.Fatal(err)
			}
			got := sb.BoundOnce(pl)
			gap := math.Abs(got-want) / math.Max(1, want)
			worst = math.Max(worst, gap)
			if gap > 1e-9 {
				t.Errorf("%s plan %d: composed bound %.15g, task-tree bound %.15g (relative gap %.3g)", name, i, got, want, gap)
			}
		}
	}
	for _, n := range []int{2, 3, 4, 5} {
		plans, err := query.EnumerateBushy(subtreeRels(n))
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("n=%d", n), 16, plans)
	}
	worst = 0
	r := rand.New(rand.NewSource(23))
	for n := 2; n <= 7; n++ {
		for c := 0; c < 3; c++ {
			rels := make([]*query.Relation, n)
			for i := range rels {
				tuples := 1_000 + r.Intn(99_001)
				rels[i] = &query.Relation{Name: fmt.Sprintf("R%d", i), Tuples: tuples}
			}
			var plans []*query.PlanNode
			if n <= 4 {
				var err error
				if plans, err = query.EnumerateBushy(rels); err != nil {
					t.Fatal(err)
				}
			} else {
				for range 40 {
					pl, err := query.PlanOver(r, rels, query.RandomBushy)
					if err != nil {
						t.Fatal(err)
					}
					plans = append(plans, pl)
				}
			}
			for _, p := range []int{10, 64, 128} {
				check(fmt.Sprintf("generated n=%d catalog %d P=%d", n, c, p), p, plans)
			}
		}
	}
	t.Logf("largest relative gap over the generated catalogs: %.3g", worst)
}

// Monotonicity: a subtree's bound never exceeds the bound of any plan
// containing it — the exactness contract of streaming subtree pruning.
func TestSubtreeBoundMonotoneUnderComposition(t *testing.T) {
	cache := costmodel.NewCache(costmodel.Default())
	ov := resource.MustOverlap(0.5)
	sb, err := NewSubtreeBounds(cache, ov, 8, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := query.EnumerateBushy(subtreeRels(5))
	if err != nil {
		t.Fatal(err)
	}
	// Allow summation-order slack: the containing bound is composed too,
	// so the comparison is exact in real arithmetic and ulp-tight here.
	const slack = 1e-12
	var walk func(root, n *query.PlanNode, rootBound float64)
	walk = func(root, n *query.PlanNode, rootBound float64) {
		if b := sb.Bound(n); b > rootBound*(1+slack) {
			t.Fatalf("subtree bound %.15g exceeds containing plan's bound %.15g", b, rootBound)
		}
		if n.IsLeaf() {
			return
		}
		walk(root, n.Outer, rootBound)
		walk(root, n.Inner, rootBound)
	}
	for _, pl := range plans {
		walk(pl, pl, sb.Bound(pl))
	}
}

// The memo must price shared DP subtrees once: pricing every plan of
// the n=4 enumeration touches far fewer distinct specs than pricing
// each plan in isolation.
func TestSubtreeBoundMemoSharesStructure(t *testing.T) {
	cache := costmodel.NewCache(costmodel.Default())
	ov := resource.MustOverlap(0.5)
	sb, err := NewSubtreeBounds(cache, ov, 16, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := query.EnumerateBushy(subtreeRels(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range plans {
		sb.BoundOnce(pl)
	}
	// 120 plans × 7 operators = 840 evaluations unshared. Shared: the DP
	// holds every proper subtree once (4 leaves + 2-rel and 3-rel
	// subtrees) plus 2 evaluations per root.
	unshared := int64(len(plans) * 7)
	if got := sb.Terms(); got >= unshared/2 {
		t.Fatalf("composer evaluated %d operator terms; want structural sharing well under %d", got, unshared)
	}
	// Memoized re-pricing of a full plan is free.
	before := sb.Terms()
	sb.Bound(plans[0])
	after0 := sb.Terms()
	sb.Bound(plans[0])
	if sb.Terms() != after0 {
		t.Fatal("memoized Bound re-evaluated operator terms")
	}
	if after0 < before {
		t.Fatal("term counter went backwards")
	}
}

func TestNewSubtreeBoundsValidation(t *testing.T) {
	cache := costmodel.NewCache(costmodel.Default())
	ov := resource.MustOverlap(0.5)
	if _, err := NewSubtreeBounds(nil, ov, 8, 0.7); err == nil {
		t.Error("nil cache accepted")
	}
	if _, err := NewSubtreeBounds(cache, ov, 0, 0.7); err == nil {
		t.Error("P = 0 accepted")
	}
	for _, f := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := NewSubtreeBounds(cache, ov, 8, f); err == nil {
			t.Errorf("f = %g accepted", f)
		}
	}
}
