package sched

// scratch holds the placement loop's reusable working memory. One
// TreeSchedule (or ScheduleBatch) run allocates a single scratch and
// threads it through every phase's operatorSchedule call, so the
// per-phase cost of the ban sets, the clone list, and the site index is
// a handful of slice clears instead of fresh heap allocations — the
// schedulers' outputs (Result.Sites, placements, the loaded System)
// still get their own memory, because they escape to the caller.
//
// A scratch is single-threaded state: each scheduling call owns its
// own. The zero value is ready to use.
type scratch struct {
	// list is the step-2 clone list L, reused between phases.
	list []item
	// bans is the flattened ban matrix: floating operator i's row is
	// bans[i*p : (i+1)*p], true marking a site already holding one of
	// the operator's clones. Rows are cleared on reuse.
	bans []bool
	// ix is the incremental site-load index rebuilt each call from the
	// post-rooted system state; its order/pos slices are reused.
	ix siteIndex
	// ids detects duplicate operator IDs during validation.
	ids map[int]bool
	// homeSeen detects duplicate home sites in Op.validate: entry s
	// equals gen when site s was seen for the operator currently being
	// validated. The generation trick makes per-operator reset O(1).
	homeSeen []int
	gen      int
	// jobs/prep carry one phase's cost-preparation fan-out (parallel.go):
	// the job list built serially in operator order and the index-aligned
	// results the pool writes. Reused between phases.
	jobs []prepJob
	prep []prepOut
}

// item is one floating clone vector on the step-2 list.
type item struct {
	op    *Op
	clone int
	len   float64
	// bans is the operator's ban row, shared by all the operator's
	// items; carrying it here keeps step 3 free of per-pick lookups.
	bans []bool
}

// resetIDs prepares the duplicate-ID set for a validation pass.
func (sc *scratch) resetIDs(n int) {
	if sc.ids == nil {
		sc.ids = make(map[int]bool, n)
		return
	}
	clear(sc.ids)
}

// nextGen starts a fresh home-distinctness generation over p sites.
func (sc *scratch) nextGen(p int) int {
	if len(sc.homeSeen) < p {
		sc.homeSeen = make([]int, p)
		sc.gen = 0
	}
	sc.gen++
	return sc.gen
}

// banRows returns the cleared flattened ban matrix for rows operators
// over p sites.
func (sc *scratch) banRows(rows, p int) []bool {
	n := rows * p
	if cap(sc.bans) < n {
		sc.bans = make([]bool, n)
		return sc.bans
	}
	sc.bans = sc.bans[:n]
	for i := range sc.bans {
		sc.bans[i] = false
	}
	return sc.bans
}

// cloneList returns the empty step-2 list with capacity for n items.
func (sc *scratch) cloneList(n int) []item {
	if cap(sc.list) < n {
		sc.list = make([]item, 0, n)
	}
	return sc.list[:0]
}

// prepJobs returns the empty cost-preparation job list with capacity
// for n jobs.
func (sc *scratch) prepJobs(n int) []prepJob {
	if cap(sc.jobs) < n {
		sc.jobs = make([]prepJob, 0, n)
	}
	return sc.jobs[:0]
}

// prepOuts returns a zeroed result slice for n preparation jobs. The
// zeroing matters: stale pointers from a previous phase must not leak
// into a phase whose pool writes fail or race-free-but-partial tests
// inspect the slice.
func (sc *scratch) prepOuts(n int) []prepOut {
	if cap(sc.prep) < n {
		sc.prep = make([]prepOut, n)
		return sc.prep
	}
	sc.prep = sc.prep[:n]
	for i := range sc.prep {
		sc.prep[i] = prepOut{}
	}
	return sc.prep
}
