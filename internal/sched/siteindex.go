// The incremental site-load index behind OperatorSchedule's placement
// step. The Figure 3 rule places every floating clone on the allowable
// site minimizing (l(work(s)), Σ work(s), site id) lexicographically;
// the naive form rescans all P sites per clone, O(n·P) probes with an
// O(d) load reduction each. The index keeps the sites in a slice sorted
// by exactly that key, so one placement is a prefix walk that skips the
// operator's banned sites (usually O(ban set) work) followed by an
// ordered re-insertion of the single site whose key grew. The walk
// degrades to the full scan only when the operator's ban set covers the
// entire index prefix — the same worst case the scan always paid.
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
	pos   []int     // pos[id] = current index of site id in order
}

// reset rebuilds the index over the system's current loads (rooted
// operators are already placed when the floating pass starts), reusing
// the receiver's slices when they are large enough.
func (ix *siteIndex) reset(sys *resource.System) *siteIndex {
	p := sys.P()
	if cap(ix.order) < p {
		ix.order = make([]siteKey, p)
		ix.pos = make([]int, p)
	}
	ix.order = ix.order[:p]
	ix.pos = ix.pos[:p]
	for j := 0; j < p; j++ {
		s := sys.Site(j)
		ix.order[j] = siteKey{l: s.LoadLength(), sum: s.LoadSum(), id: j}
	}
	// Strict total order (ids are distinct), so any correct sort yields
	// the same permutation.
	slices.SortFunc(ix.order, func(a, b siteKey) int {
		if keyLess(a, b) {
			return -1
		}
		return 1
	})
	for i, k := range ix.order {
		ix.pos[k.id] = i
	}
	return ix
}

// pick returns the least-key site whose id is not banned, or -1 if the
// ban set covers every site. The ban set is a site-indexed []bool row
// of the scratch's flattened matrix.
func (ix *siteIndex) pick(bans []bool) int {
	for _, k := range ix.order {
		if !bans[k.id] {
			return k.id
		}
	}
	return -1
}

// pickSkips is pick plus the number of better-keyed sites the walk
// skipped because the ban set held them — the "ban-set hit" count of
// the decision trace. Kept separate from pick so the untraced hot path
// does not carry the extra counter.
func (ix *siteIndex) pickSkips(bans []bool) (site, skipped int) {
	for _, k := range ix.order {
		if bans[k.id] {
			skipped++
			continue
		}
		return k.id, skipped
	}
	return -1, skipped
}

// update re-keys site id after new work was assigned to it. The key can
// only have grown, so the site bubbles toward the back of the order; the
// shift distance is the number of sites it overtakes.
func (ix *siteIndex) update(sys *resource.System, id int) {
	s := sys.Site(id)
	k := siteKey{l: s.LoadLength(), sum: s.LoadSum(), id: id}
	i := ix.pos[id]
	for i+1 < len(ix.order) && keyLess(ix.order[i+1], k) {
		ix.order[i] = ix.order[i+1]
		ix.pos[ix.order[i].id] = i
		i++
	}
	ix.order[i] = k
	ix.pos[id] = i
}
