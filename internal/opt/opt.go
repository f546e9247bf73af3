// Package opt computes OPTBOUND (Section 6.2), the lower bound on the
// response time of the optimal CG_f execution that Figure 6(b) compares
// TREESCHEDULE against and that the optimizer prunes candidates with.
// The brute-force optima that validate the Theorem 5.1 and Theorem 7.1
// performance-ratio guarantees live in this package's tests
// (exhaustive_test.go).
package opt

import (
	"fmt"
	"math"

	"mdrs/internal/costmodel"
	"mdrs/internal/plan"
	"mdrs/internal/resource"
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
	return bound(tt, ov, p, f, func(spec costmodel.OpSpec) (vector.Vector, float64) {
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
	return bound(tt, ov, p, f, func(spec costmodel.OpSpec) (vector.Vector, float64) {
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
func bound(tt *plan.TaskTree, ov resource.Overlap, p int, f float64, eval func(costmodel.OpSpec) (vector.Vector, float64)) (float64, error) {
	if err := tt.Validate(); err != nil {
		return 0, err
	}
	if err := ov.Validate(); err != nil {
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
