package sched

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
	"mdrs/internal/vector"
)

func verifiableSchedule(t *testing.T, seed int64, joins, p int) (*Schedule, resource.Overlap) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	pl := query.MustRandom(r, query.DefaultGenConfig(joins))
	tt := plan.MustNewTaskTree(plan.MustExpand(pl))
	ov := resource.MustOverlap(0.5)
	s, err := testScheduler(p, 0.5, 0.7).Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	return s, ov
}

func TestVerifyAcceptsTreeSchedules(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		s, ov := verifiableSchedule(t, seed, 6+int(seed), 4+int(seed)*2)
		if err := Verify(s, ov); err != nil {
			t.Fatalf("seed %d: valid schedule rejected: %v", seed, err)
		}
	}
}

func TestVerifyAcceptsBatchSchedules(t *testing.T) {
	ts := testScheduler(16, 0.5, 0.7)
	var trees []*plan.TaskTree
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		pl := query.MustRandom(r, query.DefaultGenConfig(6))
		trees = append(trees, plan.MustNewTaskTree(plan.MustExpand(pl)))
	}
	batch, err := ts.ScheduleBatch(trees)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(batch, resource.MustOverlap(0.5)); err != nil {
		t.Fatalf("batch schedule rejected: %v", err)
	}
}

func TestVerifyRejectsNilAndEmpty(t *testing.T) {
	ov := resource.MustOverlap(0.5)
	if err := Verify(nil, ov); err == nil {
		t.Error("nil schedule accepted")
	}
	if err := Verify(&Schedule{P: 0}, ov); err == nil {
		t.Error("P = 0 accepted")
	}
}

func TestVerifyDetectsCorruptions(t *testing.T) {
	ov := resource.MustOverlap(0.5)
	corruptions := []struct {
		name    string
		mutate  func(s *Schedule)
		keyword string
	}{
		{
			"response tampered",
			func(s *Schedule) { s.Response *= 2 },
			"phase sum",
		},
		{
			"phase response tampered",
			func(s *Schedule) { s.Phases[0].Response += 1 },
			"Equation 3",
		},
		{
			"clone moved off its home",
			func(s *Schedule) {
				// Move a probe clone away from the build's site.
				for _, ph := range s.Phases {
					for _, pl := range ph.Placements {
						if pl.Op.BuildOp != nil {
							pl.Sites[0] = (pl.Sites[0] + 1) % s.P
							return
						}
					}
				}
			},
			"", // any error is acceptable (hash table or Equation 3 drift)
		},
		{
			"two clones on one site",
			func(s *Schedule) {
				for _, ph := range s.Phases {
					for _, pl := range ph.Placements {
						if pl.Degree >= 2 && pl.Op.BuildOp == nil {
							pl.Sites[1] = pl.Sites[0]
							return
						}
					}
				}
			},
			"",
		},
		{
			"negative clone work",
			func(s *Schedule) { s.Phases[0].Placements[0].Clones[0][0] = -1 },
			"",
		},
		{
			"site out of range",
			func(s *Schedule) { s.Phases[0].Placements[0].Sites[0] = 999 },
			"outside",
		},
		{
			"operator duplicated across phases",
			func(s *Schedule) {
				s.Phases[1].Placements = append(s.Phases[1].Placements,
					s.Phases[0].Placements[0])
			},
			"twice",
		},
		// The three below panicked inside Verify before it checked them.
		{
			"nil phase",
			func(s *Schedule) { s.Phases[1] = nil },
			"phase 1 is nil",
		},
		{
			"nil placement",
			func(s *Schedule) { s.Phases[0].Placements[0] = nil },
			"phase 0 placement 0 is nil",
		},
		{
			"clone of the wrong dimension",
			func(s *Schedule) { s.Phases[0].Placements[0].Clones[0] = vector.Of(1, 2) },
			"dimension 2",
		},
	}
	for _, c := range corruptions {
		s, _ := verifiableSchedule(t, 99, 8, 8)
		if err := Verify(s, ov); err != nil {
			t.Fatalf("%s: pristine schedule rejected: %v", c.name, err)
		}
		c.mutate(s)
		err := Verify(s, ov)
		if err == nil {
			t.Errorf("%s: corruption not detected", c.name)
			continue
		}
		if c.keyword != "" && !strings.Contains(err.Error(), c.keyword) {
			t.Errorf("%s: error %q missing keyword %q", c.name, err, c.keyword)
		}
	}
}

// Property: for any random plan and configuration, TreeSchedule's
// output passes full verification — the strongest end-to-end invariant
// in the suite.
func TestQuickTreeScheduleAlwaysVerifies(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		joins := 1 + r.Intn(20)
		p := 1 + r.Intn(40)
		eps := r.Float64()
		f := r.Float64() * 1.2
		pl := query.MustRandom(r, query.DefaultGenConfig(joins))
		tt := plan.MustNewTaskTree(plan.MustExpand(pl))
		ts := testScheduler(p, eps, f)
		if r.Intn(2) == 0 {
			ts.Policy = plan.EarliestShelf
		}
		s, err := ts.Schedule(tt)
		if err != nil {
			t.Fatalf("seed %d (J=%d P=%d ε=%.2f f=%.2f): %v", seed, joins, p, eps, f, err)
		}
		if err := Verify(s, resource.MustOverlap(eps)); err != nil {
			t.Fatalf("seed %d (J=%d P=%d ε=%.2f f=%.2f): %v", seed, joins, p, eps, f, err)
		}
	}
}

// phaseSystem loads a phase's placements, in order, onto a fresh system.
func phaseSystem(p int, ov resource.Overlap, ph *PhaseSchedule) *resource.System {
	sys := resource.NewSystem(p, resource.Dims, ov)
	for _, pl := range ph.Placements {
		for k, site := range pl.Sites {
			sys.Assign(site, pl.Clones[k])
		}
	}
	return sys
}

// Property: sites are interchangeable. Relabel a schedule built with no
// Homes — its only rooted operators are probes at their builds' sites —
// by one permutation π of [0, P): the result verifies, site π(j) of
// every phase carries exactly what site j did, and so each phase's
// Equation 3 response is bit-identical.
func TestQuickSiteRelabelling(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	for trial := 0; trial < 60; trial++ {
		joins, p, eps := 1+r.Intn(24), 1+r.Intn(140), r.Float64()
		ov := resource.MustOverlap(eps)
		tt := plan.MustNewTaskTree(plan.MustExpand(query.MustRandom(r, query.DefaultGenConfig(joins))))
		s, err := testScheduler(p, eps, 0.3+0.9*r.Float64()).Schedule(tt)
		if err != nil {
			t.Fatal(err)
		}
		before := make([]*resource.System, len(s.Phases))
		for i, ph := range s.Phases {
			before[i] = phaseSystem(p, ov, ph)
		}
		perm := r.Perm(p)
		for _, ph := range s.Phases {
			for _, pl := range ph.Placements {
				for k, site := range pl.Sites {
					pl.Sites[k] = perm[site]
				}
			}
		}
		if err := Verify(s, ov); err != nil {
			t.Fatalf("trial %d (J=%d P=%d): relabelled schedule rejected: %v", trial, joins, p, err)
		}
		for i, ph := range s.Phases {
			after := phaseSystem(p, ov, ph)
			for j := 0; j < p; j++ {
				if !slices.Equal(after.Load(perm[j]), before[i].Load(j)) || after.TSite(perm[j]) != before[i].TSite(j) {
					t.Fatalf("trial %d phase %d: site %d → %d carries %v (T^site %g), was %v (%g)", trial, i, j, perm[j],
						after.Load(perm[j]), after.TSite(perm[j]), before[i].Load(j), before[i].TSite(j))
				}
			}
			if got, want := after.MaxTSite(), before[i].MaxTSite(); got != want {
				t.Fatalf("trial %d phase %d: Equation 3 gives %g after relabelling, %g before", trial, i, got, want)
			}
		}
	}
}

// Property: random batches verify too.
func TestQuickBatchAlwaysVerifies(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed + 100))
		p := 2 + r.Intn(20)
		eps := r.Float64()
		ts := testScheduler(p, eps, 0.7)
		var trees []*plan.TaskTree
		for q := 0; q < 1+r.Intn(4); q++ {
			pl := query.MustRandom(r, query.DefaultGenConfig(1+r.Intn(10)))
			trees = append(trees, plan.MustNewTaskTree(plan.MustExpand(pl)))
		}
		s, err := ts.ScheduleBatch(trees)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := Verify(s, resource.MustOverlap(eps)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestVerifyAcceptsSynchronousShapedSchedules(t *testing.T) {
	// Verify is model-based, not scheduler-based: any placement obeying
	// the invariants passes, including hand-built ones.
	ov := resource.MustOverlap(1)
	s := &Schedule{P: 2}
	ph := &PhaseSchedule{Index: 0}
	op := &plan.Operator{ID: 0, Name: "scan(X)"}
	ph.Placements = append(ph.Placements, &OpPlacement{
		Op:     op,
		Degree: 2,
		Sites:  []int{0, 1},
		Clones: []vector.Vector{vector.Of(1, 0, 0), vector.Of(1, 0, 0)},
	})
	ph.Response = 1
	s.Phases = []*PhaseSchedule{ph}
	s.Response = 1
	if err := Verify(s, ov); err != nil {
		t.Fatalf("hand-built schedule rejected: %v", err)
	}
}
