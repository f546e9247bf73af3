// Package engine is a small in-memory shared-nothing join execution
// engine. It exists to validate schedules end-to-end: it actually
// executes a scheduled bushy plan — partitioned scans, builds and
// pipelined probes over synthetic data, with the work of every operator
// clone metered against per-site virtual resource clocks using the same
// Table 2 cost constants the scheduler plans with — and checks that (a)
// every join produces exactly the cardinality the optimizer's
// simple-key-join rule predicts and (b) the measured response time
// tracks the scheduler's analytic prediction.
//
// # Synthetic data
//
// The paper's workloads assume simple key joins where the result size
// equals the larger operand's size. The generator realizes that with a
// foreign-key discipline per join: the smaller operand carries distinct
// keys 0..s−1 and the larger operand carries keys drawn from [0, s), so
// every larger-side tuple matches exactly one smaller-side tuple and
// |result| = max(|L|, |R|). The engine runs each join as a semi-join of
// the larger operand against a presence bitmap of the smaller one's
// keys, and checks all three properties of the data: the smaller side's
// keys are distinct, every key lies in [0, s), and every larger-side key
// is present. What the meters read is each clone's count of keys, so
// skew in the keys shows as uneven clones (EA1), not as a different
// result.
//
// Rows flow through the engine as identities into their "carrier" leaf
// — the base relation whose rows survive, join after join, along the
// chain of larger operands. A join's result keeps every row of its
// larger operand, so an operator's output is one whole carrier leaf,
// named by its index and length and holding no row numbers, and the
// keys a row needs for future joins are exactly the key columns
// assigned to its carrier leaf at generation time, read in place.
package engine

import (
	"fmt"
	"math/rand"

	"mdrs/internal/query"
)

// keySlot records that a leaf carries a key column for one join.
type keySlot struct {
	joinNode *query.PlanNode
	smaller  bool // the leaf's subtree is the join's smaller operand
	domain   int  // s = min(|outer|, |inner|) of the join
}

// joinCols holds one join's generated key columns: cols[leaf] is that
// leaf's key column for the join (nil when the leaf carries no key for
// it), and domain is the key domain [0, domain). A join has two, one on
// each operand's carrier leaf.
type joinCols struct {
	domain int
	cols   map[int32][]int32
}

// Dataset holds the generated base relations of one plan.
type Dataset struct {
	// Plan is the source execution plan.
	Plan *query.PlanNode

	leaves []*query.Relation
	byLeaf map[*query.PlanNode]int32 // leaf plan node -> leaf index
	// joins is read-only once Generate returns, so concurrent runs over
	// a shared dataset need no locks.
	joins map[*query.PlanNode]*joinCols
	skewS float64 // Zipf exponent for larger-side keys; 0 = uniform
}

// GenOptions tunes data generation.
type GenOptions struct {
	// Seed makes generation reproducible.
	Seed int64
	// SkewS, when > 1, draws the larger operands' join keys from a Zipf
	// distribution with exponent SkewS instead of uniformly. Every
	// larger-side tuple still matches exactly one smaller-side tuple
	// (cardinalities are unchanged), but hash partitions become uneven —
	// violating the no-execution-skew assumption EA1 on purpose, to
	// measure how far reality can drift from the scheduler's prediction.
	// Zero means uniform keys.
	SkewS float64
}

// Generate creates synthetic relations for a validated plan with
// uniform keys. The same seed always yields the same data.
func Generate(p *query.PlanNode, seed int64) (*Dataset, error) {
	return GenerateOpts(p, GenOptions{Seed: seed})
}

// GenerateOpts is Generate with explicit options.
func GenerateOpts(p *query.PlanNode, opts GenOptions) (*Dataset, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("engine: generating data for invalid plan: %w", err)
	}
	if opts.SkewS != 0 && opts.SkewS <= 1 {
		return nil, fmt.Errorf("engine: Zipf exponent %g must exceed 1 (or be 0 for uniform)", opts.SkewS)
	}
	ds := &Dataset{
		Plan:   p,
		byLeaf: make(map[*query.PlanNode]int32),
		joins:  make(map[*query.PlanNode]*joinCols),
		skewS:  opts.SkewS,
	}
	r := rand.New(rand.NewSource(opts.Seed))
	ds.walk(r, p, nil)
	return ds, nil
}

// MustGenerate is Generate that panics on error.
func MustGenerate(p *query.PlanNode, seed int64) *Dataset {
	ds, err := Generate(p, seed)
	if err != nil {
		panic(err)
	}
	return ds
}

// walk descends the plan accumulating the pending key slots the current
// subtree's carrier leaf must provide.
func (ds *Dataset) walk(r *rand.Rand, n *query.PlanNode, pending []keySlot) {
	if n.IsLeaf() {
		li := int32(len(ds.leaves))
		for _, slot := range pending {
			col := make([]int32, n.Relation.Tuples)
			if slot.smaller {
				// Distinct keys 0..s−1: the leaf has exactly s rows.
				perm := r.Perm(slot.domain)
				for i := range col {
					col[i] = int32(perm[i])
				}
			} else if ds.skewS > 1 {
				z := rand.NewZipf(r, ds.skewS, 1, uint64(slot.domain-1))
				for i := range col {
					col[i] = int32(z.Uint64())
				}
			} else {
				for i := range col {
					col[i] = int32(r.Intn(slot.domain))
				}
			}
			ds.joins[slot.joinNode].cols[li] = col
		}
		ds.byLeaf[n] = li
		ds.leaves = append(ds.leaves, n.Relation)
		return
	}

	s := n.Outer.Tuples
	if n.Inner.Tuples < s {
		s = n.Inner.Tuples
	}
	ds.joins[n] = &joinCols{domain: s, cols: make(map[int32][]int32, 2)}
	// The carrier (larger) child keeps the pending chain; the smaller
	// child's rows are dropped after this join, so it only needs this
	// join's key. Ties go to the outer child, matching OuterIsCarrier.
	outerSlot := keySlot{joinNode: n, smaller: n.Outer.Tuples < n.Inner.Tuples, domain: s}
	innerSlot := keySlot{joinNode: n, smaller: !outerSlot.smaller, domain: s}
	var outerPending, innerPending []keySlot
	if OuterIsCarrier(n) {
		outerPending = append([]keySlot{outerSlot}, pending...)
		innerPending = []keySlot{innerSlot}
	} else {
		outerPending = []keySlot{outerSlot}
		innerPending = append([]keySlot{innerSlot}, pending...)
	}
	ds.walk(r, n.Outer, outerPending)
	ds.walk(r, n.Inner, innerPending)
}

// OuterIsCarrier reports whether the join's result keeps the rows of
// the outer (probe-side) operand: true when the outer operand is at
// least as large as the inner one.
func OuterIsCarrier(join *query.PlanNode) bool {
	return join.Outer.Tuples >= join.Inner.Tuples
}

// NumLeaves returns the number of generated base relations.
func (ds *Dataset) NumLeaves() int { return len(ds.leaves) }

// LeafIndex returns the dataset index of the given leaf plan node.
func (ds *Dataset) LeafIndex(leaf *query.PlanNode) (int32, error) {
	idx, ok := ds.byLeaf[leaf]
	if !ok {
		return 0, fmt.Errorf("engine: plan node is not a leaf of this dataset")
	}
	return idx, nil
}
