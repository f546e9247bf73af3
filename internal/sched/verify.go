package sched

import (
	"fmt"
	"math"

	"mdrs/internal/plan"
	"mdrs/internal/resource"
)

// Verify checks every structural invariant a well-formed schedule must
// satisfy and returns the first violation:
//
//  1. every phase and placement is non-nil, every placement has a
//     positive degree with matching Sites/Clones lengths, valid site
//     indices and valid clone vectors of the model's dimension;
//  2. no two clones of one operator share a site (Definition 5.1);
//  3. a probe occupies exactly its build's home, clone by clone
//     (Section 5.5), and runs in a strictly later phase;
//  4. every phase's recorded response equals the Equation 3 evaluation
//     of its placements, and the schedule's response is the phase sum.
//
// It is exported so downstream tooling (and this repository's tests)
// can assert schedule integrity without re-deriving the model.
func Verify(s *Schedule, ov resource.Overlap) error {
	if s == nil {
		return fmt.Errorf("sched: nil schedule")
	}
	if s.P <= 0 {
		return fmt.Errorf("sched: non-positive site count %d", s.P)
	}
	// Keyed by operator pointer: IDs are only unique per query, and
	// batch schedules interleave several queries.
	phaseOf := map[*plan.Operator]int{}
	sites := map[*plan.Operator][]int{}
	sum := 0.0
	for pi, ph := range s.Phases {
		if ph == nil {
			return fmt.Errorf("sched: phase %d is nil", pi)
		}
		sys := resource.NewSystem(s.P, resource.Dims, ov)
		for i, pl := range ph.Placements {
			if pl == nil {
				return fmt.Errorf("sched: phase %d placement %d is nil", pi, i)
			}
			if pl.Op == nil {
				return fmt.Errorf("sched: phase %d has a placement without an operator", pi)
			}
			if pl.Degree <= 0 || len(pl.Sites) != pl.Degree || len(pl.Clones) != pl.Degree {
				return fmt.Errorf("sched: %q degree %d with %d sites / %d clones",
					pl.Op.Name, pl.Degree, len(pl.Sites), len(pl.Clones))
			}
			if _, dup := phaseOf[pl.Op]; dup {
				return fmt.Errorf("sched: operator %q placed twice", pl.Op.Name)
			}
			phaseOf[pl.Op] = pi
			sites[pl.Op] = pl.Sites
			seen := make(map[int]bool, pl.Degree)
			for k, site := range pl.Sites {
				if site < 0 || site >= s.P {
					return fmt.Errorf("sched: %q clone %d at site %d outside [0, %d)",
						pl.Op.Name, k, site, s.P)
				}
				if seen[site] {
					return fmt.Errorf("sched: %q has two clones at site %d (Definition 5.1)",
						pl.Op.Name, site)
				}
				seen[site] = true
				if err := pl.Clones[k].Validate(); err != nil {
					return fmt.Errorf("sched: %q clone %d: %w", pl.Op.Name, k, err)
				}
				if d := pl.Clones[k].Dim(); d != resource.Dims {
					return fmt.Errorf("sched: %q clone %d has dimension %d, want %d",
						pl.Op.Name, k, d, resource.Dims)
				}
				sys.Assign(site, pl.Clones[k])
			}
		}
		if got := sys.MaxTSite(); math.Abs(got-ph.Response) > 1e-6*(1+got) {
			return fmt.Errorf("sched: phase %d response %g, Equation 3 gives %g",
				pi, ph.Response, got)
		}
		sum += ph.Response
	}
	if math.Abs(sum-s.Response) > 1e-6*(1+sum) {
		return fmt.Errorf("sched: response %g != phase sum %g", s.Response, sum)
	}

	// Build → probe constraints.
	for _, ph := range s.Phases {
		for _, pl := range ph.Placements {
			build := pl.Op.BuildOp
			if build == nil {
				continue
			}
			bPhase, ok := phaseOf[build]
			if !ok {
				return fmt.Errorf("sched: probe %q scheduled but its build is not", pl.Op.Name)
			}
			if bPhase >= phaseOf[pl.Op] {
				return fmt.Errorf("sched: probe %q in phase %d, build in phase %d",
					pl.Op.Name, phaseOf[pl.Op], bPhase)
			}
			home := sites[build]
			if len(home) != len(pl.Sites) {
				return fmt.Errorf("sched: probe %q degree %d != build degree %d",
					pl.Op.Name, len(pl.Sites), len(home))
			}
			for k := range home {
				if home[k] != pl.Sites[k] {
					return fmt.Errorf("sched: probe %q clone %d at site %d, hash table at %d",
						pl.Op.Name, k, pl.Sites[k], home[k])
				}
			}
		}
	}
	return nil
}
