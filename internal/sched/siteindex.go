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
	// site and groups partition the sites by the rooted work step 1
	// loaded them with: two sites in one group took the same sequence of
	// rooted runs, so their loads, and their (l, sum), are bit-identical.
	// Group 0 holds the sites no rooted run loaded. While groups is empty
	// no rooted run has loaded a site, and site is stale.
	site   []int32
	groups []siteGroup
	runs   int32     // load calls since groups was emptied
	keys   []siteKey // reset's group keys, each id a group
}

// siteGroup is one group of sites with equal loads.
type siteGroup struct {
	rep int32 // reset's member of the group, -1 when it has none
	// next is the group that load call number stamp moved members to.
	next, stamp int32
	// rank is the group's place among the distinct (l, sum) keys. reset
	// counts each rank's sites in the count of the group numbered like
	// the rank, then turns the count into the rank's next slot.
	rank, count int32
}

// begin empties the groups for a new placement: every site is in group 0.
func (ix *siteIndex) begin() { ix.groups = ix.groups[:0] }

// load refines the groups after step 1 assigned one rooted work run to
// the given sites, which are distinct: the members of a group the run
// touched move together to a new group, and the others stay. A group's
// next is fresh from the run's first member of it on.
func (ix *siteIndex) load(p int, sites []int) {
	if len(ix.groups) == 0 {
		if cap(ix.site) < p {
			ix.site = make([]int32, p)
		}
		ix.site = ix.site[:p]
		clear(ix.site)
		ix.groups, ix.runs = append(ix.groups, siteGroup{}), 0
	}
	ix.runs++
	for _, s := range sites {
		g := ix.site[s]
		if ix.groups[g].stamp != ix.runs {
			ix.groups[g].stamp, ix.groups[g].next = ix.runs, int32(len(ix.groups))
			ix.groups = append(ix.groups, siteGroup{})
		}
		ix.site[s] = ix.groups[g].next
	}
}

// reset rebuilds the index over the system's current loads (rooted
// operators are already placed when the floating pass starts, their
// runs recorded by load), reusing the receiver's slices when they are
// large enough. A run holds at most P clones, so grown is sized once,
// beside order in one allocation. Without a rooted run every key is
// (0, 0, id), in site order. Otherwise the G groups' keys are sorted,
// groups with equal (l, sum) share a rank, and one counting pass lays
// the sites out by rank, each rank in ascending id: the (l, sum, id)
// order in O(P + G log G), with no comparison sort over the sites.
func (ix *siteIndex) reset(sys *resource.System) *siteIndex {
	p := sys.P()
	if cap(ix.order) < p {
		keys := make([]siteKey, 2*p)
		ix.order, ix.grown = keys[:p:p], keys[p:p:2*p]
	}
	ix.order = ix.order[:p]
	if len(ix.groups) == 0 {
		for j := range ix.order {
			ix.order[j] = siteKey{id: j}
		}
		return ix
	}
	// A run may have moved a group's first member on, so the members
	// that represent the groups are chosen now. A group a later run left
	// empty takes no key, rank or site.
	groups := ix.groups
	for g := range groups {
		groups[g].rep, groups[g].count = -1, 0
	}
	for j, g := range ix.site {
		groups[g].rep = int32(j)
	}
	keys := ix.keys[:0]
	for g, gr := range groups {
		if gr.rep >= 0 {
			keys = append(keys, siteKey{l: sys.LoadLength(int(gr.rep)), sum: sys.LoadSum(int(gr.rep)), id: g})
		}
	}
	ix.keys = keys
	slices.SortFunc(keys, keyCmp)
	rank := int32(0)
	for i, k := range keys {
		if i > 0 && (k.l != keys[i-1].l || k.sum != keys[i-1].sum) {
			rank++
		}
		groups[k.id].rank = rank
	}
	for _, g := range ix.site {
		groups[groups[g].rank].count++
	}
	next := int32(0)
	for r := range rank + 1 {
		next, groups[r].count = next+groups[r].count, next
	}
	for j, g := range ix.site {
		slot := &groups[groups[g].rank].count
		ix.order[*slot] = siteKey{l: sys.LoadLength(j), sum: sys.LoadSum(j), id: j}
		*slot++
	}
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
	// Grown keys mostly come in order (DESIGN §6): check before sorting.
	if !slices.IsSortedFunc(grown, keyCmp) {
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
