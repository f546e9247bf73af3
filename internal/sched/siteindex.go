// The incremental site-load index behind OperatorSchedule's placement
// step. The Figure 3 rule places every floating clone on the allowable
// site minimizing (l(work(s)), Σ work(s), site id) lexicographically;
// the naive form rescans all P sites per clone, O(n·P) probes with an
// O(d) load reduction each. The index keeps the sites in a slice sorted
// by exactly that key, and its unit of work is a run of L — the c
// consecutive equal-length clones of one operator. During a run no
// unpicked key changes and every picked site is banned for the rest of
// it, so the run's clones take the first c unbanned positions of the
// order in one prefix walk (O(ban set + c)), and one rekey then merges
// the c grown keys back in: O(P + c log P) per run, where re-keying
// clone by clone moved up to P keys per clone. Nothing maps a site id
// back to its slot; only the walk needs one, and it has it.
package sched

import (
	"slices"

	"mdrs/internal/resource"
)

// siteKey is the placement ordering key of one site. Keys only grow
// while a schedule is being built (Assign adds non-negative work).
type siteKey struct {
	l   float64 // l(work(s)): max-component of the accumulated load
	sum float64 // Σ work(s): total accumulated load over all resources
	id  int     // site index, the final deterministic tie-break
}

// keyLess is the single lexicographic (l, sum, id) comparison used by
// every placement decision. Comparing exactly (no epsilon band) keeps
// the rule a strict weak ordering: the chosen site is always the true
// argmin, and equal keys cannot chain into a drifting "tie" the way the
// old ±tieEps window could.
func keyLess(a, b siteKey) bool {
	if a.l != b.l {
		return a.l < b.l
	}
	if a.sum != b.sum {
		return a.sum < b.sum
	}
	return a.id < b.id
}

// keyCmp is keyLess as a sort comparison. Ids are distinct, so the
// order is strict and total: any correct sort gives one permutation.
func keyCmp(a, b siteKey) int {
	if keyLess(a, b) {
		return -1
	}
	return 1
}

// siteIndex maintains all P sites in ascending (l, sum, id) order.
type siteIndex struct {
	order []siteKey // sites sorted ascending by keyLess
	grown []siteKey // room for a run's re-keyed sites (rekey's input)
}

// reset rebuilds the index over the system's current loads (rooted
// operators are already placed when the floating pass starts), reusing
// the receiver's slices when they are large enough. A run holds at most
// P clones, so grown is sized once, beside order in one allocation.
func (ix *siteIndex) reset(sys *resource.System) *siteIndex {
	p := sys.P()
	if cap(ix.order) < p {
		keys := make([]siteKey, 2*p)
		ix.order, ix.grown = keys[:p:p], keys[p:p:2*p]
	}
	ix.order = ix.order[:p]
	// A site no rooted clone loaded has key (0, 0, id): below every
	// loaded site's, and ascending as filled. Those go to the front, the
	// loaded ones to the back, and only the back is sorted.
	lo, hi := 0, p
	for j := 0; j < p; j++ {
		k := siteKey{l: sys.LoadLength(j), sum: sys.LoadSum(j), id: j}
		if k.l == 0 && k.sum == 0 {
			ix.order[lo] = k
			lo++
		} else {
			hi--
			ix.order[hi] = k
		}
	}
	slices.SortFunc(ix.order[lo:], keyCmp)
	return ix
}

// rekey puts a run's picked sites back in order. The run's walk took,
// up to position hi, every site that bans does not hold, and grown
// holds their keys after the run's Assigns. rekey sorts those, moves the banned sites
// among the picks behind the c holes the picks leave, so that every key
// behind the holes is untouched and in order, fills the holes from the
// front with one binary search and one block move per grown key, and
// bans the picked sites. For a run of one it is the single-clone
// re-key: one search behind the pick, one copy.
func (ix *siteIndex) rekey(hi int, grown []siteKey, bans []bool) {
	if len(grown) > 1 {
		slices.SortFunc(grown, keyCmp)
	}
	w := hi
	for i, picks := hi, 0; picks < len(grown); i-- {
		if k := ix.order[i]; bans[k.id] {
			ix.order[w] = k
			w--
		} else {
			bans[k.id] = true
			picks++
		}
	}
	// order[w:src] are the holes; every key from src on is untouched and
	// sorted, and each grown key lands behind the ones it now follows.
	src := w + 1
	w = src - len(grown)
	for _, k := range grown {
		rest := ix.order[src:]
		n, top := 0, len(rest)
		for n < top {
			mid := int(uint(n+top) >> 1)
			if keyLess(rest[mid], k) {
				n = mid + 1
			} else {
				top = mid
			}
		}
		copy(ix.order[w:], rest[:n])
		w, src = w+n, src+n
		ix.order[w] = k
		w++
	}
}
