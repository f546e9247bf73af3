// Package sim is a fluid (processor-sharing) simulator of preemptable
// multi-dimensional resource sites. It exists to validate the paper's
// analytic site model — Equation 2,
//
//	T^site(s) = max{ max_{W∈work(s)} T^seq(W), l(work(s)) } —
//
// against an executable model of time-sharing that honors assumptions
// A2 (no time-sharing overhead) and A3 (uniform resource usage).
//
// Each clone at a site demands work vector W and, alone, runs for
// T^seq(W) consuming resource i at constant rate W[i]/T^seq(W). When
// clones share the site, the simulator slows every active clone by a
// common factor λ(t) chosen as large as possible without oversubscribing
// any resource:
//
//	λ(t) = min{ 1, 1 / max_i Σ_{active c} W_c[i]/T_c }.
//
// This "equal-stretch" policy is feasible but not always optimal, so the
// simulated makespan is an upper bound on the optimal preemptive
// makespan and never falls below the analytic T^site. The gap between
// the two quantifies the model error the paper accepts by assuming
// Equation 2 is attained (it is attained exactly for a single clone, for
// identical clones, and whenever one resource saturates throughout).
package sim

import (
	"fmt"
	"math"
	"slices"

	"mdrs/internal/resource"
	"mdrs/internal/sched"
	"mdrs/internal/vector"
)

// SimulateSite runs the fluid simulation for one site holding the given
// clone work vectors and returns the simulated makespan. Zero-work
// clones complete instantly. It returns an error on invalid vectors or
// mismatched dimensions.
//
// Because every active clone progresses at the common speed λ(t), a
// clone's standalone-equivalent ("virtual") clock advances identically
// for all of them, and clones complete in ascending T^seq order no
// matter how λ evolves. The event queue a general fluid simulator would
// keep in a min-heap therefore degenerates to a list sorted once up
// front, and the aggregate demand updates incrementally — subtract the
// completing clone's rate vector instead of rebuilding the sum over all
// survivors. Each completion event costs O(d) instead of O(n·d), for
// O(n·(d + log n)) total where the previous implementation paid O(n²·d).
func SimulateSite(ov resource.Overlap, clones []vector.Vector) (float64, error) {
	d := -1
	rates := make([]vector.Vector, 0, len(clones)) // unslowed consumption rates
	times := make([]float64, 0, len(clones))       // standalone times T^seq
	for i, w := range clones {
		if err := w.Validate(); err != nil {
			return 0, fmt.Errorf("sim: clone %d: %w", i, err)
		}
		if d < 0 {
			d = w.Dim()
		} else if w.Dim() != d {
			return 0, fmt.Errorf("sim: clone %d dimension %d != %d", i, w.Dim(), d)
		}
		t := ov.TSeq(w)
		if t <= 0 {
			continue // no work
		}
		rates = append(rates, w.Scale(1/t))
		times = append(times, t)
	}
	if len(times) == 0 {
		return 0, nil
	}

	// Completion order: ascending virtual time, index as the tie-break
	// (equal times retire at the same event, so the tie-break is only
	// about keeping the sort deterministic).
	order := make([]int, len(times))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if times[a] != times[b] {
			if times[a] < times[b] {
				return -1
			}
			return 1
		}
		return a - b
	})

	demand := vector.New(d)
	for _, r := range rates {
		demand.AddInPlace(r)
	}
	now := 0.0  // wall-clock time
	done := 0.0 // virtual time all active clones have accumulated
	for i := 0; i < len(order); {
		// Common slowdown factor for the current active set.
		lambda := 1.0
		if m := demand.Length(); m > 1 {
			lambda = 1 / m
		}
		// Advance to the next completion. Setting done to the completing
		// clone's exact T^seq (rather than accumulating differences)
		// guarantees the front clone retires below: no floating-point
		// drift can strand a clone with an un-retirable sliver.
		t := times[order[i]]
		now += (t - done) / lambda
		done = t
		// Retire every clone reaching its virtual completion at this
		// event; SubInPlace clamps at zero, absorbing rate-sum drift.
		for i < len(order) && times[order[i]]-done <= 1e-12 {
			demand.SubInPlace(rates[order[i]])
			i++
		}
	}
	return now, nil
}

// SiteComparison pairs the analytic and simulated response of one site.
type SiteComparison struct {
	Analytic  float64
	Simulated float64
}

// Ratio returns Simulated/Analytic (1 when both are zero).
func (c SiteComparison) Ratio() float64 {
	if c.Analytic == 0 {
		if c.Simulated == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return c.Simulated / c.Analytic
}

// SimulateSystem simulates every site of an assignment (siteClones[j]
// holds the work vectors at site j) and returns the per-site
// comparisons plus the overall makespans. Sites are simulated in order,
// so when several fail the lowest-numbered site's error is reported.
func SimulateSystem(ov resource.Overlap, siteClones [][]vector.Vector) ([]SiteComparison, SiteComparison, error) {
	per := make([]SiteComparison, len(siteClones))
	var overall SiteComparison
	for j, clones := range siteClones {
		simT, err := SimulateSite(ov, clones)
		if err != nil {
			return nil, SiteComparison{}, fmt.Errorf("sim: site %d: %w", j, err)
		}
		per[j] = SiteComparison{Analytic: ov.TSite(clones), Simulated: simT}
		if per[j].Analytic > overall.Analytic {
			overall.Analytic = per[j].Analytic
		}
		if per[j].Simulated > overall.Simulated {
			overall.Simulated = per[j].Simulated
		}
	}
	return per, overall, nil
}

// SimulateSchedule replays a full TreeSchedule/Synchronous schedule
// through the fluid simulator, phase by phase, and returns the analytic
// and simulated end-to-end response times (each the sum of its phases).
func SimulateSchedule(ov resource.Overlap, s *sched.Schedule) (SiteComparison, error) {
	var total SiteComparison
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
		_, overall, err := SimulateSystem(ov, siteClones)
		if err != nil {
			return SiteComparison{}, err
		}
		total.Analytic += overall.Analytic
		total.Simulated += overall.Simulated
	}
	return total, nil
}
