// Package contention extends the paper's model with its second open
// problem: resources with different degrees of "preemptability".
// Assumption A2 says time-slicing a preemptable resource costs nothing;
// the conclusions note that disks, in particular, do not time-share as
// gracefully as CPUs — slicing a disk among many tasks reduces its
// effective bandwidth (seeks between interleaved streams).
//
// The extension charges a per-resource sharing penalty γ_i: when k
// clones use resource i at one site, the resource's effective demand
// inflates to
//
//	load_i · (1 + γ_i·(k − 1)),
//
// so γ = 0 recovers Equation 2 exactly and γ_disk ≈ 0.05–0.2 models
// seek overhead growing with the number of interleaved streams. The
// package provides both a penalized evaluator for existing schedules
// (how much does A2's idealization cost?) and a penalty-aware variant
// of the OperatorSchedule list rule whose greedy key is the penalized
// site load (how much of that cost can the scheduler win back?).
package contention

import (
	"fmt"
	"math"
	"sort"

	"mdrs/internal/resource"
	"mdrs/internal/sched"
	"mdrs/internal/vector"
)

// Penalty holds one finite sharing-penalty coefficient γ_i >= 0 per resource.
// A nil Penalty means γ = 0 everywhere (the paper's assumption A2).
type Penalty []float64

// Validate reports dimension, sign or non-finite problems.
func (g Penalty) Validate(d int) error {
	if g == nil {
		return nil
	}
	if len(g) != d {
		return fmt.Errorf("contention: penalty has %d coefficients for %d resources", len(g), d)
	}
	for i, x := range g {
		if !(x >= 0) || math.IsInf(x, 1) {
			return fmt.Errorf("contention: penalty γ_%d = %g, want finite and non-negative", i, x)
		}
	}
	return nil
}

// DiskOnly returns a d-dimensional penalty charging γ on the disk
// resource only — the paper's motivating case.
func DiskOnly(d int, gamma float64) Penalty {
	g := make(Penalty, d)
	if resource.Disk < d {
		g[resource.Disk] = gamma
	}
	return g
}

// TSite returns the penalized site response time: Equation 2 with each
// resource's aggregate load inflated by its sharing penalty.
func TSite(ov resource.Overlap, g Penalty, clones []vector.Vector) float64 {
	if len(clones) == 0 {
		return 0
	}
	d := clones[0].Dim()
	load := vector.New(d)
	users := make([]int, d)
	maxSeq := 0.0
	for _, w := range clones {
		load.AddInPlace(w)
		for i, x := range w {
			if x > 0 {
				users[i]++
			}
		}
		if t := ov.TSeq(w); t > maxSeq {
			maxSeq = t
		}
	}
	worst := 0.0
	for i := range load {
		l := load[i]
		if g != nil && users[i] > 1 {
			l *= 1 + float64(g[i]*float64(users[i]-1))
		}
		if l > worst {
			worst = l
		}
	}
	if maxSeq > worst {
		return maxSeq
	}
	return worst
}

// EvalSchedule replays a phased schedule under the penalized model and
// returns its end-to-end response time (sum over phases of the worst
// penalized site). With g = nil it reproduces the schedule's own
// Response.
func EvalSchedule(ov resource.Overlap, g Penalty, s *sched.Schedule) (float64, error) {
	if err := g.Validate(resource.Dims); err != nil {
		return 0, err
	}
	total := 0.0
	for _, ph := range s.Phases {
		siteClones := make([][]vector.Vector, s.P)
		for _, pl := range ph.Placements {
			k := 0
			for _, r := range pl.Work {
				for range r.N {
					siteClones[pl.Sites[k]] = append(siteClones[pl.Sites[k]], r.W)
					k++
				}
			}
		}
		worst := 0.0
		for _, clones := range siteClones {
			if t := TSite(ov, g, clones); t > worst {
				worst = t
			}
		}
		total += worst
	}
	return total, nil
}

// OperatorSchedule is the penalty-aware variant of the paper's list
// scheduling rule: identical list order and constraints, but the greedy
// key and the reported response use the penalized site time, so clones
// that would interleave on a poorly-sharing resource repel each other.
func OperatorSchedule(p, d int, ov resource.Overlap, g Penalty, ops []*sched.Op) (*sched.Result, error) {
	if err := g.Validate(d); err != nil {
		return nil, err
	}
	if err := sched.ValidateOps(p, d, ops); err != nil {
		return nil, err
	}

	siteClones := make([][]vector.Vector, p)
	res := &sched.Result{Sites: make(map[int][]int, len(ops))}

	// Rooted clones go to their homes now, floating ones to the list.
	type item struct {
		op    *sched.Op
		clone int
		w     vector.Vector
	}
	var list []item
	used := make(map[int]map[int]bool, len(ops))
	for _, op := range ops {
		used[op.ID] = map[int]bool{}
		sites := make([]int, op.Degree())
		res.Sites[op.ID] = sites
		k := 0
		for _, r := range op.Work {
			for range r.N {
				if op.Rooted() {
					siteClones[op.Home[k]] = append(siteClones[op.Home[k]], r.W)
					sites[k] = op.Home[k]
					used[op.ID][op.Home[k]] = true
				} else {
					list = append(list, item{op: op, clone: k, w: r.W})
				}
				k++
			}
		}
	}
	sort.SliceStable(list, func(i, j int) bool {
		a, b := list[i], list[j]
		la, lb := a.w.Length(), b.w.Length()
		if la != lb {
			return la > lb
		}
		if a.op.ID != b.op.ID {
			return a.op.ID < b.op.ID
		}
		return a.clone < b.clone
	})

	for _, it := range list {
		w := it.w
		best, bestKey := -1, 0.0
		for j := 0; j < p; j++ {
			if used[it.op.ID][j] {
				continue
			}
			// Greedy key: the penalized site time if the clone lands here.
			key := TSite(ov, g, append(siteClones[j], w))
			if best < 0 || key < bestKey-1e-12 {
				best, bestKey = j, key
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("contention: no allowable site for op %d clone %d",
				it.op.ID, it.clone)
		}
		siteClones[best] = append(siteClones[best], w)
		used[it.op.ID][best] = true
		res.Sites[it.op.ID][it.clone] = best
	}

	worst := 0.0
	for _, clones := range siteClones {
		if t := TSite(ov, g, clones); t > worst {
			worst = t
		}
	}
	res.Response = worst
	return res, nil
}
