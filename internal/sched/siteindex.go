// The incremental site-load index behind OperatorSchedule's placement
// step. The Figure 3 rule places every floating clone on the allowable
// site minimizing (l(work(s)), Σ work(s), site id) lexicographically;
// the naive form rescans all P sites per clone, O(n·P) probes with an
// O(d) load reduction each. The index keeps the sites in a slice sorted
// by exactly that key, so one placement is two steps. The pick is a
// prefix walk that skips the operator's banned sites and stops at a
// position in the slice: O(ban set), the full scan only when the ban
// set covers the entire prefix. The re-key starts from that position:
// list order puts each clone on the least-loaded site, whose grown key
// belongs behind about half of the others, so its slot is found by
// binary search — O(log P) comparisons — and the gap closed with one
// block move. Nothing maps a site id back to its slot; only the walk
// needs one, and it has it.
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

// siteIndex maintains all P sites in ascending (l, sum, id) order.
type siteIndex struct {
	order []siteKey // sites sorted ascending by keyLess
}

// reset rebuilds the index over the system's current loads (rooted
// operators are already placed when the floating pass starts), reusing
// the receiver's slice when it is large enough.
func (ix *siteIndex) reset(sys *resource.System) *siteIndex {
	p := sys.P()
	if cap(ix.order) < p {
		ix.order = make([]siteKey, p)
	}
	ix.order = ix.order[:p]
	// A site no rooted clone loaded has key (0, 0, id): below every
	// loaded site's, and ascending as filled. Those go to the front, the
	// loaded ones to the back, and only the back is sorted.
	lo, hi := 0, p
	for j := 0; j < p; j++ {
		s := sys.Site(j)
		k := siteKey{l: s.LoadLength(), sum: s.LoadSum(), id: j}
		if k.l == 0 && k.sum == 0 {
			ix.order[lo] = k
			lo++
		} else {
			hi--
			ix.order[hi] = k
		}
	}
	// A strict total order (ids are distinct): any correct sort will do.
	slices.SortFunc(ix.order[lo:], func(a, b siteKey) int {
		if keyLess(a, b) {
			return -1
		}
		return 1
	})
	return ix
}

// pick returns the position in order of the least-key site whose id is
// not banned, or -1 if the ban set covers every site. The ban set is a
// site-indexed []bool row of the scratch's flattened matrix.
func (ix *siteIndex) pick(bans []bool) int {
	for i, k := range ix.order {
		if !bans[k.id] {
			return i
		}
	}
	return -1
}

// pickSkips is pick plus the number of better-keyed sites the walk
// skipped because the ban set held them — the "ban-set hit" count of
// the decision trace. Kept separate from pick so the untraced hot path
// does not carry the extra counter.
func (ix *siteIndex) pickSkips(bans []bool) (i, skipped int) {
	for j, k := range ix.order {
		if bans[k.id] {
			skipped++
			continue
		}
		return j, skipped
	}
	return -1, skipped
}

// update re-keys the site at position i of order after new work was
// assigned to it. The key can only have grown, so its slot is at or
// behind i: a binary search over order[i+1:] counts the sites it now
// follows, and one copy moves them up over the old slot.
func (ix *siteIndex) update(sys *resource.System, i int) {
	id := ix.order[i].id
	s := sys.Site(id)
	k := siteKey{l: s.LoadLength(), sum: s.LoadSum(), id: id}
	rest := ix.order[i+1:]
	lo, hi := 0, len(rest)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keyLess(rest[mid], k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	copy(ix.order[i:], rest[:lo])
	ix.order[i+lo] = k
}
