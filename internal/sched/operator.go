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

	"mdrs/internal/obs"
	"mdrs/internal/resource"
	"mdrs/internal/vector"
)

// Op is one operator instance presented to OperatorSchedule: its clone
// work vectors (coordinator first, by the EA1 convention) and, for
// rooted operators, the fixed home sites of its clones.
type Op struct {
	// ID is a caller-assigned identifier, unique within one call.
	ID int
	// Clones holds one work vector per clone; len(Clones) is the degree
	// of partitioned parallelism N_i.
	Clones []vector.Vector
	// Home, when non-nil, fixes clone k at site Home[k] (a rooted
	// operator, constraint (B)). Home must have exactly len(Clones)
	// pairwise-distinct entries in [0, P).
	Home []int
}

// Rooted reports whether the operator's placement is fixed by data
// placement constraints.
func (o *Op) Rooted() bool { return o.Home != nil }

// Degree returns N_i, the operator's degree of partitioned parallelism.
func (o *Op) Degree() int { return len(o.Clones) }

// validate checks an operator against the system width p and
// dimensionality d. Each clone is walked exactly once (vector validity
// and dimension together), and home distinctness uses the scratch's
// generation-marked site slice instead of a per-operator map.
func (o *Op) validate(p, d int, sc *scratch) error {
	if len(o.Clones) == 0 {
		return fmt.Errorf("sched: op %d has no clones", o.ID)
	}
	if len(o.Clones) > p {
		return fmt.Errorf("sched: op %d has %d clones but only %d sites exist (Definition 5.1)",
			o.ID, len(o.Clones), p)
	}
	for k, w := range o.Clones {
		if err := w.Validate(); err != nil {
			return fmt.Errorf("sched: op %d clone %d: %w", o.ID, k, err)
		}
		if w.Dim() != d {
			return fmt.Errorf("sched: op %d clone dimension %d != system dimension %d",
				o.ID, w.Dim(), d)
		}
	}
	if o.Home != nil {
		if len(o.Home) != len(o.Clones) {
			return fmt.Errorf("sched: op %d has %d home sites for %d clones",
				o.ID, len(o.Home), len(o.Clones))
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
	total := 0
	for _, op := range ops {
		total += len(op.Clones)
	}
	slab := make([]int, total)
	sites := make([][]int, len(ops))
	for i, op := range ops {
		n := len(op.Clones)
		sites[i], slab = slab[:n:n], slab[n:]
	}
	sc := new(scratch)
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

// operatorSchedule runs Figure 3 on the scratch's site system, which it
// leaves loaded in sc.sys, and returns the Equation 3 response. The
// site of operator ops[i]'s clone k is written to sites[i][k]; the
// caller sizes each row to the operator's degree.
func (sc *scratch) operatorSchedule(ctx context.Context, p, d int, ov resource.Overlap, ops []*Op,
	sites [][]int, sorted bool, rec obs.Recorder, phase int) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if p <= 0 {
		return 0, fmt.Errorf("sched: non-positive site count %d", p)
	}
	if d <= 0 {
		return 0, fmt.Errorf("sched: non-positive dimensionality %d", d)
	}
	sc.resetIDs(len(ops))
	for _, op := range ops {
		if sc.ids[op.ID] {
			return 0, fmt.Errorf("sched: duplicate operator ID %d", op.ID)
		}
		sc.ids[op.ID] = true
		if err := op.validate(p, d, sc); err != nil {
			return 0, err
		}
	}

	sys := sc.system(p, d, ov)

	// Step 1 (Figure 3): place the work vectors of all rooted operators
	// at their respective sites.
	for i, op := range ops {
		if !op.Rooted() {
			continue
		}
		for k, w := range op.Clones {
			h := op.Home[k]
			if rec != nil {
				rec.Event(obs.Event{
					Type: obs.EvPlace, Phase: phase, Op: op.ID, Clone: k,
					Site: h, Rooted: true,
					L: sys.LoadLength(h), Sum: sys.LoadSum(h),
				})
			}
			sys.Assign(h, w)
			sites[i][k] = h
		}
	}

	// Step 2: the list L of all floating clone vectors in non-increasing
	// order of l(w̄), ties on operator ID then clone index so the
	// schedule is deterministic. L is held as runs of consecutive
	// equal-length clones (see run): sorted by (len desc, op ID, first
	// clone) and walked in clone order in step 3, they are that same
	// per-clone sequence. Runs and the per-operator ban rows (sites
	// already holding one of the operator's clones, one flattened []bool
	// matrix) come from the scratch. Rooted operators need no ban row —
	// they contribute no floating clones.
	floating, total, rooted := 0, 0, 0
	for _, op := range ops {
		if op.Rooted() {
			rooted += len(op.Clones)
		} else {
			floating++
			total += len(op.Clones)
		}
	}
	bans := sc.banRows(floating, p)
	list := sc.runList(total)
	row := 0
	for i, op := range ops {
		if op.Rooted() {
			continue
		}
		first := len(list)
		for k, w := range op.Clones {
			l := w.Length()
			if last := len(list) - 1; last >= first && list[last].len == l {
				list[last].count++
				continue
			}
			list = append(list, run{len: l, id: op.ID, first: int32(k), count: 1, op: int32(i), ban: int32(row)})
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
	// O(P + c log P) for c clones, not an O(P·d) rescan per clone. Each
	// run depends on the previous placements, so the loop is serial.
	// ctxCheckStride counts clones.
	ix := sc.ix.reset(sys)
	order, grown := ix.order, ix.grown
	placed := 0
	for _, r := range list {
		op, opBans, dst := ops[r.op], bans[int(r.ban)*p:(int(r.ban)+1)*p], sites[r.op]
		grown = grown[:0]
		at, skipped := 0, 0
		for k := int(r.first); k < int(r.first+r.count); k++ {
			if placed%ctxCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
			}
			placed++
			for at < len(order) && opBans[order[at].id] {
				at++
				skipped++
			}
			if at == len(order) {
				// Unreachable given validate(): degree <= P and distinct homes.
				return 0, fmt.Errorf("sched: no allowable site for op %d clone %d", op.ID, k)
			}
			key := order[at]
			if rec != nil {
				// Clone by clone, the index would have re-inserted each
				// earlier pick of the run, banned, wherever its grown key
				// sorts: those ahead of this pick are ban hits too.
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
			sys.Assign(key.id, op.Clones[k])
			grown = append(grown, siteKey{l: sys.LoadLength(key.id), sum: sys.LoadSum(key.id), id: key.id})
			dst[k] = key.id
			at++
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
// non-positive site count, operators with no clones, or clone vectors
// whose dimensionality disagrees with the rest of the input — contribute
// a bound of 0 instead of panicking; callers that validate first never
// see the difference. The reference dimensionality is the first clone
// vector with a positive dimension; every mismatched vector is skipped
// in both the congestion and the h(N) term.
func LowerBound(p int, ov resource.Overlap, ops []*Op) float64 {
	if p <= 0 {
		return 0
	}
	d := 0
	for _, op := range ops {
		for _, w := range op.Clones {
			if w.Dim() > 0 {
				d = w.Dim()
				break
			}
		}
		if d > 0 {
			break
		}
	}
	if d == 0 {
		return 0
	}
	total := vector.New(d)
	h := 0.0
	for _, op := range ops {
		tpar := 0.0
		for _, w := range op.Clones {
			if w.Dim() != d {
				continue
			}
			total.AddInPlace(w)
			if t := ov.TSeq(w); t > tpar {
				tpar = t
			}
		}
		if tpar > h {
			h = tpar
		}
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

// CoarseGrainRatioBound returns the Theorem 5.1(b) guarantee,
// 2d(fd+1)+1: the worst-case ratio against the optimal CG_f schedule.
func CoarseGrainRatioBound(d int, f float64) float64 {
	return 2*float64(d)*(f*float64(d)+1) + 1
}
