// Package opt provides the optimality references used in the paper's
// evaluation and in this repository's test suite:
//
//   - Bound computes OPTBOUND (Section 6.2), the lower bound on the
//     response time of the optimal CG_f execution that Figure 6(b)
//     compares TREESCHEDULE against; and
//   - Exhaustive and ExhaustiveMalleable compute true optima for tiny
//     instances by brute force, used to validate the Theorem 5.1 and
//     Theorem 7.1 performance-ratio guarantees empirically.
package opt

import (
	"fmt"
	"math"

	"mdrs/internal/costmodel"
	"mdrs/internal/malleable"
	"mdrs/internal/plan"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
	"mdrs/internal/vector"
)

// Bound computes
//
//	OPTBOUND = max{ l(S)/P, T(CP) }
//
// where S is the set of zero-communication work vectors of all plan
// operators (so l(S)/P is the perfectly balanced congestion bound) and
// T(CP) is the response time of the critical path: the most expensive
// root-to-leaf chain of blocking-dependent tasks, each task costed at
// the maximum allowable degree of coarse-grain parallelism for its
// operators. By assumption A4 this is a valid lower bound on the length
// of any CG_f execution.
func Bound(tt *plan.TaskTree, m costmodel.Model, ov resource.Overlap, p int, f float64) (float64, error) {
	return bound(tt, p, f, func(spec costmodel.OpSpec) (vector.Vector, float64) {
		c := m.Cost(spec)
		n := m.Degree(c, f, p, ov)
		return c.Processing, m.TPar(c, n, ov)
	})
}

// BoundCached is Bound evaluated through a cost-model memo: every
// per-operator derivation (cost vector, CG_f degree, T^par) goes through
// the cache, so a caller that bounds many structurally similar plans —
// the optimizer's bound-pruned search bounds every candidate before
// scheduling any — prices each distinct operator spec once, and the
// same memo entries later serve TreeSchedule on the survivors. Every
// cached answer is bit-identical to the uncached model's, so
// BoundCached(tt, costmodel.NewCache(m), …) == Bound(tt, m, …) exactly.
func BoundCached(tt *plan.TaskTree, c *costmodel.Cache, ov resource.Overlap, p int, f float64) (float64, error) {
	return bound(tt, p, f, func(spec costmodel.OpSpec) (vector.Vector, float64) {
		return c.BoundTerm(spec, f, p, ov)
	})
}

// bound is the shared OPTBOUND body: eval returns one operator's
// zero-communication processing vector and its T^par at the best CG_f
// degree. Unlike sched.LowerBound, which takes caller-supplied clone
// vectors of arbitrary shape, every vector here comes from
// Model.Cost/Cache.Cost, which always allocate resource.Dims components
// — so the AddInPlace below cannot see a dimension mismatch (audited
// alongside the LowerBound mixed-dimension fix).
func bound(tt *plan.TaskTree, p int, f float64, eval func(costmodel.OpSpec) (vector.Vector, float64)) (float64, error) {
	if err := tt.Validate(); err != nil {
		return 0, err
	}
	if p <= 0 {
		return 0, fmt.Errorf("opt: non-positive site count %d", p)
	}
	if !(f >= 0) || math.IsInf(f, 1) {
		return 0, fmt.Errorf("opt: granularity parameter f = %g, want finite and non-negative", f)
	}

	// Congestion bound: total zero-communication work per resource,
	// spread perfectly over P sites.
	total := vector.New(resource.Dims)
	// Per-task cost: the slowest operator at its best CG_f degree.
	taskTime := make(map[*plan.Task]float64, len(tt.Tasks))
	for _, tk := range tt.Tasks {
		worst := 0.0
		for _, op := range tk.Ops {
			proc, t := eval(op.Spec)
			total.AddInPlace(proc)
			if t > worst {
				worst = t
			}
		}
		taskTime[tk] = worst
	}
	congestion := total.Length() / float64(p)

	// Critical path over the task tree: children must complete before
	// their parent starts, so path times add.
	var critical func(tk *plan.Task) float64
	critical = func(tk *plan.Task) float64 {
		deepest := 0.0
		for _, c := range tk.Children {
			if t := critical(c); t > deepest {
				deepest = t
			}
		}
		return taskTime[tk] + deepest
	}
	cp := critical(tt.Root)

	return math.Max(congestion, cp), nil
}

// Exhaustive finds the response time of the optimal assignment of the
// given operators (with their fixed clone vectors) to p d-dimensional
// sites, subject to Definition 5.1's constraints, by exhaustive
// branch-and-bound. Rooted operators are honored. The search is
// exponential in the total clone count; callers must keep instances
// tiny (≲ 10 clones).
func Exhaustive(p, d int, ov resource.Overlap, ops []*sched.Op) (float64, error) {
	// Validate via a throwaway heuristic run, which also gives an upper
	// bound that seeds the branch-and-bound.
	heur, err := sched.OperatorSchedule(p, d, ov, ops)
	if err != nil {
		return 0, err
	}
	best := heur.Response

	type cloneRef struct {
		op *sched.Op
		k  int
	}
	var clones []cloneRef
	// work[j] is the multiset work(s_j), pushed and popped as the search
	// descends and backtracks; a trial is priced by Equation 2 over it.
	work := make([][]vector.Vector, p)
	usedBy := make(map[*sched.Op]map[int]bool, len(ops))
	for _, op := range ops {
		usedBy[op] = map[int]bool{}
		if op.Rooted() {
			for k, s := range op.Home {
				work[s] = append(work[s], op.Clones[k])
				usedBy[op][s] = true
			}
			continue
		}
		for k := range op.Clones {
			clones = append(clones, cloneRef{op: op, k: k})
		}
	}

	var rec func(i int, cur float64)
	rec = func(i int, cur float64) {
		if cur >= best-1e-15 {
			return // prune: partial makespan already no better
		}
		if i == len(clones) {
			best = cur
			return
		}
		c := clones[i]
		for j := 0; j < p; j++ {
			if usedBy[c.op][j] {
				continue
			}
			work[j] = append(work[j], c.op.Clones[c.k])
			usedBy[c.op][j] = true
			rec(i+1, max(cur, ov.TSite(work[j])))
			usedBy[c.op][j] = false
			work[j] = work[j][:len(work[j])-1]
		}
	}
	start := 0.0
	for _, w := range work {
		start = max(start, ov.TSite(w))
	}
	rec(0, start)
	return best, nil
}

// ExhaustiveMalleable finds the optimal response time over all
// parallelizations and all assignments for a set of malleable floating
// operators: the unconstrained optimum of Section 7. Complexity is
// O(P^M) parallelizations times an exhaustive packing each; instances
// must be tiny.
func ExhaustiveMalleable(p int, ov resource.Overlap, m costmodel.Model, ops []malleable.Operator) (float64, error) {
	if len(ops) == 0 {
		return 0, fmt.Errorf("opt: no operators")
	}
	if p <= 0 {
		return 0, fmt.Errorf("opt: non-positive site count %d", p)
	}
	degrees := make([]int, len(ops))
	for i := range degrees {
		degrees[i] = 1
	}
	best := math.Inf(1)
	for {
		schedOps := make([]*sched.Op, len(ops))
		for i, op := range ops {
			schedOps[i] = &sched.Op{ID: op.ID, Clones: m.Clones(op.Cost, degrees[i])}
		}
		opt, err := Exhaustive(p, resource.Dims, ov, schedOps)
		if err != nil {
			return 0, err
		}
		if opt < best {
			best = opt
		}
		// Next parallelization in mixed-radix order.
		i := 0
		for ; i < len(degrees); i++ {
			if degrees[i] < p {
				degrees[i]++
				break
			}
			degrees[i] = 1
		}
		if i == len(degrees) {
			return best, nil
		}
	}
}
