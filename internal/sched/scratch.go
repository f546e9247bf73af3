package sched

import (
	"sync"

	"mdrs/internal/resource"
)

// scratch holds everything a scheduling call needs and no caller keeps:
// the site system the placement loop fills, the ban sets, the run
// list, the site index, the per-phase operator slab and the build→probe
// homes. ScheduleCtx and ScheduleBatchCtx draw one from scratchPool and
// thread it through every phase, so the candidates of one plan search
// and back-to-back requests of a service all fill the same memory; what
// escapes — placements and their site slices — is allocated per phase.
// The public OperatorSchedule entry points hand Result.System to their
// caller, so they take a scratch of their own and never pool it.
//
// A scratch is single-threaded state: each scheduling call owns its
// own. The zero value is ready to use.
type scratch struct {
	// sys is the site system of the current phase; see system.
	sys *resource.System
	// list is the step-2 list L, as runs of clones, reused between phases.
	list []run
	// bans is the flattened ban matrix: floating operator i's row is
	// bans[i*p : (i+1)*p], true marking a site already holding one of
	// the operator's clones. Rows are cleared on reuse.
	bans []bool
	// ix is the incremental site-load index rebuilt each call from the
	// post-rooted system state; its order and grown slices are reused.
	ix siteIndex
	// ids detects duplicate operator IDs during validation.
	ids map[int]bool
	// homeSeen detects duplicate home sites in Op.validate: entry s
	// equals gen when site s was seen for the operator currently being
	// validated. The generation trick makes per-operator reset O(1).
	homeSeen []int
	gen      int
	// jobs is one phase's cost-preparation list, in operator order. ops
	// is the slab the prepare pass fills, opPtrs and dst the per-operator
	// views of it and of the phase's site slab that operatorSchedule
	// takes. All are reused between phases.
	jobs   []prepJob
	ops    []Op
	opPtrs []*Op
	dst    [][]int
	// homes holds the sites of every operator scheduled so far in this
	// call, by the ID it was scheduled under, for rooting probes at their
	// builds (Section 5.5). The IDs are offset per batch entry, so one
	// *plan.TaskTree (or two sharing operator pointers) may appear at
	// several batch positions without entry j's build overwriting entry
	// i's home.
	homes [][]int
	// recs are the call's priced trees and offsets their operator ID
	// offsets, kept here so a lone tree allocates neither.
	recs    []*Priced
	offsets []int
}

// scratchPool recycles scratches across scheduling calls.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// resetHomes empties the homes for a scheduling call over n operators:
// they are the one piece of scratch state a call reads before it has
// written it.
func (sc *scratch) resetHomes(n int) {
	if cap(sc.homes) < n {
		sc.homes = make([][]int, n)
		return
	}
	clear(sc.homes[:cap(sc.homes)])
	sc.homes = sc.homes[:n]
}

// records returns n records for a call's trees to be priced into.
func (sc *scratch) records(n int) []*Priced {
	for len(sc.recs) < n {
		sc.recs = append(sc.recs, new(Priced))
	}
	return sc.recs[:n]
}

// batchOffsets returns the operator ID offsets for a call over n trees;
// the driver overwrites every entry.
func (sc *scratch) batchOffsets(n int) []int {
	if cap(sc.offsets) < n {
		sc.offsets = make([]int, n)
	}
	return sc.offsets[:n]
}

// system returns an empty system of p d-dimensional sites under ov: the
// scratch's own, reset, when it has that shape, a new one otherwise.
func (sc *scratch) system(p, d int, ov resource.Overlap) *resource.System {
	if s := sc.sys; s != nil && s.P() == p && s.Dim() == d && s.Overlap() == ov {
		s.Reset()
		return s
	}
	sc.sys = resource.NewSystem(p, d, ov)
	return sc.sys
}

// run is one entry of the step-2 list L: a maximal stretch of
// consecutive floating clones of one operator with equal l(w̄) — under
// EA1 a coordinator vector plus N−1 identical ones, two runs. It is
// whole work runs of Op.Work, adjacent ones merged when their lengths
// tie. Sorting runs by (len desc, op ID, first clone) and walking each
// in clone order is the per-clone (len desc, op ID, clone) order
// exactly: equal-length clones of one operator already sort by clone
// index. The operator, its ban row and its first work run are indices,
// so the sort moves 40 pointer-free bytes.
type run struct {
	len   float64
	id    int   // Op.ID, the first tie-break
	first int32 // index of the run's first clone
	count int32 // clones in the run
	op    int32 // index of the operator (and its destination row) in ops
	ban   int32 // index of the operator's row in the ban matrix
	work  int32 // index in Op.Work of the run's first work run
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

// runList returns the empty step-2 list with capacity for n runs.
func (sc *scratch) runList(n int) []run {
	if cap(sc.list) < n {
		sc.list = make([]run, 0, n)
	}
	return sc.list[:0]
}

// phaseSlabs sizes the per-operator working slices for a phase of n
// operators; the prepare pass overwrites every entry it will read.
func (sc *scratch) phaseSlabs(n int) {
	if cap(sc.ops) < n {
		sc.ops = make([]Op, n)
		sc.opPtrs = make([]*Op, n)
		sc.dst = make([][]int, n)
		for i := range sc.ops {
			sc.opPtrs[i] = &sc.ops[i]
		}
	}
	sc.ops, sc.opPtrs, sc.dst = sc.ops[:n], sc.opPtrs[:n], sc.dst[:n]
}
