// Package malleable implements Section 7 of the paper: list scheduling
// of malleable independent operators, where the scheduler — not a
// coarse-granularity condition — chooses each floating operator's degree
// of partitioned parallelism to minimize response time over all
// possible parallel schedules.
//
// Following the GF method of Turek et al. [TWY92], a greedy selection
// builds a family of candidate parallelizations:
//
//  1. N¹ = (1, 1, …, 1), the minimum total work parallelization;
//  2. N^k is N^{k−1} with the degree of the operator whose execution
//     time equals h(N^{k−1}) (the slowest operator) increased by one;
//  3. stop when no more sites can be allotted to that operator.
//
// The candidate minimizing LB(N) = max{ l(S(N))/P, h(N) } is handed to
// the OperatorSchedule list-scheduling rule; by Lemma 7.2 the family
// contains a parallelization dominated by the optimal one, so the final
// schedule is within (2d+1) of the optimal schedule over all
// parallelizations (Theorem 7.1). The only model property required is
// that total work vectors are componentwise non-decreasing in the degree
// of parallelism, which holds here because the startup area α·N grows
// with N.
package malleable

import (
	"fmt"

	"mdrs/internal/costmodel"
	"mdrs/internal/obs"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
	"mdrs/internal/vector"
)

// Operator is one malleable floating operator.
type Operator struct {
	// ID is a caller-assigned identifier, unique within one call.
	ID int
	// Cost is the operator's costed form (processing vector plus
	// interconnect bytes), from which every parallelization's work
	// vectors derive.
	Cost costmodel.OpCost
}

// Parallelization holds one degree of partitioned parallelism per
// operator, aligned with the operator slice it was derived from.
type Parallelization []int

// Clone returns an independent copy.
func (n Parallelization) Clone() Parallelization {
	out := make(Parallelization, len(n))
	copy(out, n)
	return out
}

// Scheduler runs the Section 7 pipeline: candidate generation, lower
// bound selection, and list scheduling.
type Scheduler struct {
	Model   costmodel.Model
	Overlap resource.Overlap
	// P is the number of system sites.
	P int
	// Rec, when non-nil, receives the decision trace: one reshape event
	// per GF step (which operator's degree grew and the h(N) that drove
	// it), the final candidate selection, and the placement events of
	// the list-scheduling pass. Nil disables recording.
	Rec obs.Recorder
}

// Validate reports the first nonsensical configuration field.
func (s Scheduler) Validate() error {
	if err := s.Model.Params.Validate(); err != nil {
		return err
	}
	if s.P <= 0 {
		return fmt.Errorf("malleable: non-positive site count %d", s.P)
	}
	return nil
}

// h returns h(N) = max_i T^par(op_i, N_i) and the index of an operator
// achieving it (smallest index on ties, for determinism).
func (s Scheduler) h(ops []Operator, n Parallelization) (float64, int) {
	worst, at := -1.0, -1
	for i, op := range ops {
		if t := s.Model.TPar(op.Cost, n[i], s.Overlap); t > worst {
			worst, at = t, i
		}
	}
	return worst, at
}

// LB returns LB(N) = max{ l(S(N))/P, h(N) }, the lower bound on the
// optimal response time for the given parallelization.
func (s Scheduler) LB(ops []Operator, n Parallelization) float64 {
	if len(ops) == 0 {
		return 0
	}
	total := vector.New(resource.Dims)
	for i, op := range ops {
		total.AddInPlace(s.Model.TotalWork(op.Cost, n[i]))
	}
	lb := total.Length() / float64(s.P)
	if h, _ := s.h(ops, n); h > lb {
		lb = h
	}
	return lb
}

// Candidates generates the greedy GF family of parallelizations. The
// family size is bounded by 1 + M(P−1).
func (s Scheduler) Candidates(ops []Operator) ([]Parallelization, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("malleable: no operators")
	}
	seen := make(map[int]bool, len(ops))
	for _, op := range ops {
		if seen[op.ID] {
			return nil, fmt.Errorf("malleable: duplicate operator ID %d", op.ID)
		}
		seen[op.ID] = true
	}

	cur := make(Parallelization, len(ops))
	for i := range cur {
		cur[i] = 1
	}
	family := []Parallelization{cur.Clone()}
	for {
		h, slowest := s.h(ops, cur)
		if cur[slowest] >= s.P {
			// No more sites can be allotted to the largest operator.
			return family, nil
		}
		cur[slowest]++
		if s.Rec != nil {
			s.Rec.Count("malleable.reshapes", 1)
			s.Rec.Event(obs.Event{
				Type: obs.EvReshape, Op: ops[slowest].ID,
				From: cur[slowest] - 1, Degree: cur[slowest], H: h,
			})
		}
		family = append(family, cur.Clone())
	}
}

// Select returns the candidate with the minimum lower bound LB(N),
// breaking ties toward the earlier (less parallel) candidate.
func (s Scheduler) Select(ops []Operator) (Parallelization, float64, error) {
	family, err := s.Candidates(ops)
	if err != nil {
		return nil, 0, err
	}
	var best Parallelization
	bestLB := 0.0
	for _, n := range family {
		lb := s.LB(ops, n)
		if best == nil || lb < bestLB-1e-15 {
			best, bestLB = n, lb
		}
	}
	if s.Rec != nil {
		s.Rec.Event(obs.Event{Type: obs.EvSelect, LB: bestLB})
	}
	return best, bestLB, nil
}

// Result couples the final schedule with the chosen parallelization and
// its lower bound.
type Result struct {
	// Parallelization is the selected degree vector N.
	Parallelization Parallelization
	// LB is LB(N), a lower bound on the optimal response time over all
	// parallelizations (by Lemma 7.2 the family's minimum LB lower-bounds
	// the unconstrained optimum's LB).
	LB float64
	// Schedule is the OperatorSchedule outcome for N.
	Schedule *sched.Result
}

// Schedule runs the complete malleable pipeline and returns the
// schedule, which is within (2d+1) of the optimal parallel schedule
// length (Theorem 7.1).
func (s Scheduler) Schedule(ops []Operator) (*Result, error) {
	n, lb, err := s.Select(ops)
	if err != nil {
		return nil, err
	}
	schedOps := make([]*sched.Op, len(ops))
	for i, op := range ops {
		schedOps[i] = &sched.Op{ID: op.ID, Work: sched.SplitWork(s.Model.Split(op.Cost, n[i]))}
	}
	res, err := sched.OperatorScheduleObserved(s.P, resource.Dims, s.Overlap, schedOps, s.Rec, 0)
	if err != nil {
		return nil, err
	}
	return &Result{Parallelization: n, LB: lb, Schedule: res}, nil
}

// CoarseGrainParallelization returns the CG_f degrees min{N_max(op, f),
// N_opt, P} for the same operators, for comparing the Section 7
// scheduler against the coarse-granularity rule it generalizes.
func (s Scheduler) CoarseGrainParallelization(ops []Operator, f float64) Parallelization {
	n := make(Parallelization, len(ops))
	for i, op := range ops {
		n[i] = s.Model.Degree(op.Cost, f, s.P, s.Overlap)
	}
	return n
}

// ScheduleFixed list-schedules the operators under a caller-supplied
// parallelization (e.g. a CG_f one), for head-to-head comparisons.
func (s Scheduler) ScheduleFixed(ops []Operator, n Parallelization) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(n) != len(ops) {
		return nil, fmt.Errorf("malleable: parallelization has %d entries for %d operators",
			len(n), len(ops))
	}
	schedOps := make([]*sched.Op, len(ops))
	for i, op := range ops {
		if n[i] < 1 || n[i] > s.P {
			return nil, fmt.Errorf("malleable: degree %d for op %d outside [1, P]", n[i], op.ID)
		}
		schedOps[i] = &sched.Op{ID: op.ID, Work: sched.SplitWork(s.Model.Split(op.Cost, n[i]))}
	}
	res, err := sched.OperatorSchedule(s.P, resource.Dims, s.Overlap, schedOps)
	if err != nil {
		return nil, err
	}
	return &Result{Parallelization: n.Clone(), LB: s.LB(ops, n), Schedule: res}, nil
}

// FamilySizeBound returns 1 + M(P−1), the Section 7 bound on the number
// of generated parallelizations.
func FamilySizeBound(m, p int) int { return 1 + m*(p-1) }
