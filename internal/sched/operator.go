// Package sched implements the paper's primary contribution: the
// OperatorSchedule multi-dimensional list-scheduling heuristic for
// independent concurrent operators (Figure 3) and the TreeSchedule
// algorithm for bushy query plans executed in synchronized phases
// (Figure 4).
//
// Scheduling a set of concurrent operator clones onto P d-dimensional
// sites is an instance of the d-dimensional bin-design problem: pack the
// clone work vectors into P bins so that (A) no two clones of one
// operator share a bin, (B) rooted clones stay at their fixed sites, and
// (C) the maximum resource usage over all bins — and hence the response
// time of Equation 3 — is minimized. OperatorSchedule is the paper's
// list-scheduling rule: consider floating clone vectors in non-increasing
// order of their maximum component and place each on the least-filled
// allowable site. Its makespan is provably within (2d+1) of optimal for
// the given degrees of parallelism and within (2d(fd+1)+1) of the
// optimal coarse-grain (CG_f) schedule (Theorem 5.1).
package sched

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"mdrs/internal/costmodel"
	"mdrs/internal/obs"
	"mdrs/internal/resource"
	"mdrs/internal/vector"
)

// Op is one operator instance presented to OperatorSchedule: its clone
// work as runs (coordinator first, by the EA1 convention) and, for
// rooted operators, the fixed home sites of its clones.
type Op struct {
	// ID is a caller-assigned identifier, unique within one call.
	ID int
	// Work lists the clones' work vectors in clone order, as runs of
	// consecutive clones doing the same vector; Σ N is the degree of
	// partitioned parallelism N_i. Under EA1 that is two runs, the
	// coordinator and its N_i − 1 workers; a caller with one vector per
	// clone passes runs of one.
	Work []WorkRun
	// Home, when non-nil, fixes clone k at site Home[k] (a rooted
	// operator, constraint (B)). Home must have exactly Degree()
	// pairwise-distinct entries in [0, P).
	Home []int
}

// SplitWork is the EA1 split w as Op work: a run of one coordinator
// and, when w.N > 1, a run of w.N − 1 workers.
func SplitWork(w costmodel.CloneWork) []WorkRun { return splitRuns(new([2]WorkRun), &w) }

// splitRuns is SplitWork written into runs.
func splitRuns(runs *[2]WorkRun, w *costmodel.CloneWork) []WorkRun {
	*runs = [2]WorkRun{{N: 1, W: w.Coord[:]}, {N: w.N - 1, W: w.Worker[:]}}
	return runs[:min(w.N, 2)]
}

// Rooted reports whether the operator's placement is fixed by data
// placement constraints.
func (o *Op) Rooted() bool { return o.Home != nil }

// Degree returns N_i, the operator's degree of partitioned parallelism.
func (o *Op) Degree() int {
	n := 0
	for _, r := range o.Work {
		n += r.N
	}
	return n
}

// validate checks an operator against the system width p and
// dimensionality d, each run once: its N lies in [1, p] before it is
// added to the degree, so no sum overflows, and its vector is valid and
// d-dimensional. Home distinctness uses the scratch's generation-marked
// site slice, not a per-operator map.
func (o *Op) validate(p, d int, sc *scratch) error {
	n := 0
	for _, r := range o.Work {
		if r.N < 1 || r.N > p {
			return fmt.Errorf("sched: op %d clone %d starts a run of %d clones, want [1, %d]",
				o.ID, n, r.N, p)
		}
		if err := r.W.Validate(); err != nil {
			return fmt.Errorf("sched: op %d clone %d: %w", o.ID, n, err)
		}
		if r.W.Dim() != d {
			return fmt.Errorf("sched: op %d clone dimension %d != system dimension %d",
				o.ID, r.W.Dim(), d)
		}
		if r.N > p-n {
			return fmt.Errorf("sched: op %d has more clones than the %d sites (Definition 5.1)", o.ID, p)
		}
		n += r.N
	}
	if n == 0 {
		return fmt.Errorf("sched: op %d has no clones", o.ID)
	}
	if o.Home != nil {
		if len(o.Home) != n {
			return fmt.Errorf("sched: op %d has %d home sites for %d clones",
				o.ID, len(o.Home), n)
		}
		gen := sc.nextGen(p)
		for _, s := range o.Home {
			if s < 0 || s >= p {
				return fmt.Errorf("sched: op %d home site %d outside [0, %d)", o.ID, s, p)
			}
			if sc.homeSeen[s] == gen {
				return fmt.Errorf("sched: op %d has two clones homed at site %d", o.ID, s)
			}
			sc.homeSeen[s] = gen
		}
	}
	return nil
}

// Result is the outcome of one OperatorSchedule run.
type Result struct {
	// Sites maps each operator ID to its per-clone site assignment:
	// Sites[id][k] is the site of clone k.
	Sites map[int][]int
	// Response is the parallel execution time of the schedule per
	// Equation 3: max_j T^site(s_j).
	Response float64
	// System is the loaded site state after placement, for inspection.
	System *resource.System
}

// OperatorSchedule packs the operators' clones onto p d-dimensional
// sites using the paper's list-scheduling rule (Figure 3). The caller
// determines each floating operator's degree of parallelism beforehand
// (e.g. min{N_max(op, f), P} via the cost model); rooted operators carry
// their fixed homes.
func OperatorSchedule(p, d int, ov resource.Overlap, ops []*Op) (*Result, error) {
	return operatorSchedule(context.Background(), p, d, ov, ops, true, nil, 0)
}

// OperatorScheduleObserved is OperatorSchedule with a recorder attached:
// every placement decision is emitted as a decision-trace event tagged
// with the given phase index, alongside aggregate counters. A nil
// recorder makes it identical to OperatorSchedule; the recorder never
// influences a placement.
func OperatorScheduleObserved(p, d int, ov resource.Overlap, ops []*Op,
	rec obs.Recorder, phase int) (*Result, error) {
	return operatorSchedule(context.Background(), p, d, ov, ops, true, rec, phase)
}

// OperatorScheduleUnordered applies the same packing rule but feeds the
// clones in raw arrival order instead of non-increasing l(w̄). It exists
// for the list-order ablation; the Theorem 5.1 bound is proved for the
// sorted order only.
func OperatorScheduleUnordered(p, d int, ov resource.Overlap, ops []*Op) (*Result, error) {
	return operatorSchedule(context.Background(), p, d, ov, ops, false, nil, 0)
}

// ctxCheckStride bounds how many clone placements run between two
// context checks in the step-3 loop: frequent enough that cancellation
// lands within a few microseconds of work, rare enough that the check
// is invisible next to a placement's prefix walk.
const ctxCheckStride = 64

// operatorSchedule is the public entry points' body: it runs the
// placement on a scratch of its own, because Result.System goes to the
// caller and a pooled system would be refilled under them, and builds
// the Result.Sites map the tree schedulers do without.
func operatorSchedule(ctx context.Context, p, d int, ov resource.Overlap, ops []*Op, sorted bool,
	rec obs.Recorder, phase int) (*Result, error) {
	sc := new(scratch)
	if err := sc.validate(p, d, ops); err != nil {
		return nil, err
	}
	total := 0
	for _, op := range ops {
		total += op.Degree()
	}
	slab := make([]int, total)
	sites := make([][]int, len(ops))
	for i, op := range ops {
		n := op.Degree()
		sites[i], slab = slab[:n:n], slab[n:]
	}
	resp, err := sc.operatorSchedule(ctx, p, d, ov, ops, sites, sorted, rec, phase)
	if err != nil {
		return nil, err
	}
	res := &Result{Sites: make(map[int][]int, len(ops)), Response: resp, System: sc.sys}
	for i, op := range ops {
		res.Sites[op.ID] = sites[i]
	}
	return res, nil
}

// ValidateOps checks an OperatorSchedule call's arguments — the site
// count, the dimensionality and every operator — and returns the error
// OperatorSchedule would, without placing anything.
func ValidateOps(p, d int, ops []*Op) error {
	return new(scratch).validate(p, d, ops)
}

// validate checks an OperatorSchedule call's arguments and operators
// before anything is sized by their degrees.
func (sc *scratch) validate(p, d int, ops []*Op) error {
	if p <= 0 {
		return fmt.Errorf("sched: non-positive site count %d", p)
	}
	if d <= 0 {
		return fmt.Errorf("sched: non-positive dimensionality %d", d)
	}
	sc.resetIDs(len(ops))
	for _, op := range ops {
		if sc.ids[op.ID] {
			return fmt.Errorf("sched: duplicate operator ID %d", op.ID)
		}
		sc.ids[op.ID] = true
		if err := op.validate(p, d, sc); err != nil {
			return err
		}
	}
	return nil
}

// operatorSchedule runs Figure 3 on the scratch's site system, which it
// leaves loaded in sc.sys, and returns the Equation 3 response. The ops
// are valid. The site of operator ops[i]'s clone k is written to
// sites[i][k]; the caller sizes each row to the operator's degree.
func (sc *scratch) operatorSchedule(ctx context.Context, p, d int, ov resource.Overlap, ops []*Op,
	sites [][]int, sorted bool, rec obs.Recorder, phase int) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	sys := sc.system(p, d, ov)

	// Step 1 (Figure 3): place the work vectors of all rooted operators
	// at their respective sites, one work run (one T^seq) at a time. A
	// run's homes are distinct sites, so each clone's traced load before
	// the run is its load before its own placement. The site index
	// groups the sites by the runs that loaded them, for step 3's layout.
	sc.ix.begin()
	for i, op := range ops {
		if !op.Rooted() {
			continue
		}
		k := 0
		for _, w := range op.Work {
			run := op.Home[k : k+w.N]
			for n := 0; rec != nil && n < w.N; n++ {
				rec.Event(obs.Event{Type: obs.EvPlace, Phase: phase, Op: op.ID, Clone: k + n,
					Site: run[n], Rooted: true, L: sys.LoadLength(run[n]), Sum: sys.LoadSum(run[n])})
			}
			sys.AssignRun(run, w.W)
			sc.ix.load(p, run)
			copy(sites[i][k:], run)
			k += w.N
		}
	}

	// Step 2: the list L of all floating clone vectors in non-increasing
	// order of l(w̄), ties on operator ID then clone index so the
	// schedule is deterministic. L is held as runs of consecutive
	// equal-length clones (see run): sorted by (len desc, op ID, first
	// clone) and walked in clone order in step 3, they are that same
	// per-clone sequence; each work run takes one Length, and L has at
	// most one run per work run. Runs and the per-operator ban rows
	// (sites already holding one of the operator's clones, one flattened
	// []bool matrix) come from the scratch. Rooted operators need no ban
	// row — they contribute no floating clones.
	floating, total, rooted, workRuns := 0, 0, 0, 0
	for _, op := range ops {
		if op.Rooted() {
			rooted += op.Degree()
		} else {
			floating++
			total += op.Degree()
			workRuns += len(op.Work)
		}
	}
	bans := sc.banRows(floating, p)
	list := sc.runList(workRuns)
	row := 0
	for i, op := range ops {
		if op.Rooted() {
			continue
		}
		first, k := len(list), 0
		for j, w := range op.Work {
			if l, last := w.W.Length(), len(list)-1; last >= first && list[last].len == l {
				list[last].count += int32(w.N)
			} else {
				list = append(list, run{len: l, id: op.ID, first: int32(k), count: int32(w.N),
					op: int32(i), ban: int32(row), work: int32(j)})
			}
			k += w.N
		}
		row++
	}
	sc.list = list
	if sorted {
		// The (len desc, op ID, first clone) key is a strict total order
		// — (op, first clone) pairs are unique — so any correct sort
		// produces the same permutation.
		slices.SortFunc(list, func(a, b run) int {
			switch {
			case a.len != b.len:
				if a.len > b.len {
					return -1
				}
				return 1
			case a.id != b.id:
				return cmp.Compare(a.id, b.id)
			default:
				return cmp.Compare(a.first, b.first)
			}
		})
	}

	// Step 3: place each vector on the least-filled site (by l(work(s)))
	// holding no other clone of the same operator.
	//
	// The least-filled site by l(work(s)), as in Figure 3. Among sites
	// tied on l (common early on, when several resources are empty),
	// prefer the smaller total load: any argmin of l satisfies the
	// Theorem 5.1 proof, and the sum tie-break steers complementary
	// resource demands together (the paper's Section 5.2.2 example).
	// Remaining ties break on the site index. The siteIndex keeps the
	// sites ordered by exactly that (l, sum, id) key, and a run of L is
	// placed as a unit: no key its clones have not taken changes during
	// the run and each taken site is banned for the rest of it, so clone
	// j takes the first unbanned position after clone j−1's — one prefix
	// walk for the run — and one rekey merges the grown keys back in,
	// O(P + c log P) for c clones, not an O(P·d) rescan per clone. The
	// picks are assigned one work run at a time, one T^seq each (a list
	// run spans two when the coordinator's length ties its workers'),
	// then traced. Each run depends on the previous placements, so the
	// loop is serial. ctxCheckStride counts clones.
	ix := sc.ix.reset(sys)
	order, grown := ix.order, ix.grown
	placed := 0
	for _, r := range list {
		op, opBans, dst := ops[r.op], bans[int(r.ban)*p:(int(r.ban)+1)*p], sites[r.op]
		lo, hi := int(r.first), int(r.first+r.count)
		at := 0
		for k := lo; k < hi; k++ {
			if placed%ctxCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
			}
			placed++
			for at < len(order) && opBans[order[at].id] {
				at++
			}
			if at == len(order) {
				// Unreachable given validate(): degree <= P and distinct homes.
				return 0, fmt.Errorf("sched: no allowable site for op %d clone %d", op.ID, k)
			}
			dst[k] = order[at].id
			at++
		}
		for k, j := lo, int(r.work); k < hi; j++ {
			w := op.Work[j]
			sys.AssignRun(dst[k:k+w.N], w.W)
			k += w.N
		}
		grown = grown[:0]
		for k, pos, skipped := lo, 0, 0; k < hi; k++ {
			if rec != nil {
				// Re-walk to clone k's pick. Clone by clone, the index would
				// have re-inserted each earlier pick of the run, banned,
				// wherever its grown key sorts: those ahead of this pick are
				// ban hits too.
				for opBans[order[pos].id] {
					pos++
					skipped++
				}
				key := order[pos]
				pos++
				hits := skipped
				for _, g := range grown {
					if keyLess(g, key) {
						hits++
					}
				}
				if hits > 0 {
					rec.Count("sched.ban_hits", int64(hits))
					rec.Event(obs.Event{
						Type: obs.EvBanHit, Phase: phase, Op: op.ID,
						Clone: k, Banned: hits,
					})
				}
				rec.Event(obs.Event{
					Type: obs.EvPlace, Phase: phase, Op: op.ID, Clone: k,
					Site: key.id, L: key.l, Sum: key.sum,
				})
			}
			j := dst[k]
			grown = append(grown, siteKey{l: sys.LoadLength(j), sum: sys.LoadSum(j), id: j})
		}
		ix.rekey(at-1, grown, opBans)
	}

	response := sys.MaxTSite()
	if rec != nil {
		rec.Count("sched.ops", int64(len(ops)))
		rec.Count("sched.clones_floating", int64(total))
		rec.Count("sched.clones_rooted", int64(rooted))
		rec.Observe("sched.phase_response", response)
	}
	return response, nil
}

// LowerBound returns LB(N) = max{ l(S(N))/P, h(N) } (Section 7): the
// larger of the perfectly balanced congestion bound and the slowest
// operator's isolated parallel execution time. Every schedule of the
// given parallelization, on any assignment, takes at least this long,
// and the list-scheduling rule is guaranteed within (2d+1)·LB.
// Malformed inputs that OperatorSchedule would reject — no operators, a
// non-positive site count, operators with no clones, runs whose N is
// outside [1, P], or work vectors whose dimensionality disagrees with
// the rest of the input — contribute a bound of 0 instead of panicking
// or looping; callers that validate first never see the difference. The
// first well-formed run with a positive dimension sets the reference
// dimensionality, and malformed runs and runs of another dimension are
// skipped in both terms. A run's vector is added once per clone.
func LowerBound(p int, ov resource.Overlap, ops []*Op) float64 {
	if p <= 0 {
		return 0
	}
	var total vector.Vector
	h := 0.0
	for _, op := range ops {
		for _, r := range op.Work {
			if r.N < 1 || r.N > p || r.W.Dim() == 0 || total != nil && r.W.Dim() != total.Dim() {
				continue
			}
			if total == nil {
				total = vector.New(r.W.Dim())
			}
			for range r.N {
				total.AddInPlace(r.W)
			}
			if t := ov.TSeq(r.W); t > h {
				h = t
			}
		}
	}
	if total == nil {
		return 0
	}
	lb := total.Length() / float64(p)
	if h > lb {
		lb = h
	}
	return lb
}

// PerformanceRatioBound returns the Theorem 5.1(a) guarantee, 2d+1: the
// worst-case ratio of OperatorSchedule's makespan to the optimal
// schedule with the same degrees of parallelism.
func PerformanceRatioBound(d int) float64 { return float64(2*d + 1) }
