package sched

import (
	"bytes"
	"testing"

	"mdrs/internal/costmodel"
	"mdrs/internal/plan"
)

// MaxDegree is a semantic input — it clamps every floating operator's
// degree — so it must participate in the fingerprint: a schedule
// cached under one cap must never answer a request under another.
func TestFingerprintIncludesMaxDegree(t *testing.T) {
	ts := fpScheduler()
	tt := fpTree(7, 6)
	base := ts.Fingerprint(tt)

	capped := ts
	capped.MaxDegree = 2
	if capped.Fingerprint(tt) == base {
		t.Fatal("MaxDegree 2 shares the uncapped fingerprint")
	}
	other := ts
	other.MaxDegree = 3
	if other.Fingerprint(tt) == capped.Fingerprint(tt) {
		t.Fatal("different caps share a fingerprint")
	}
}

func TestValidateRejectsNegativeMaxDegree(t *testing.T) {
	ts := fpScheduler()
	ts.MaxDegree = -1
	if err := ts.Validate(); err == nil {
		t.Fatal("negative MaxDegree validated")
	}
}

// Capped schedules are deterministic per cap (byte-identical across
// repeated runs), respect the cap on every
// floating operator, and leave rooted operators' fixed homes alone.
// A cap at or above P is inert: byte-identical to the uncapped run.
func TestMaxDegreeClampsDeterministically(t *testing.T) {
	ts := fpScheduler()
	ts.Cache = costmodel.NewCache(ts.Model)
	tt := fpTree(11, 8)

	encode := func(s *Schedule) []byte {
		t.Helper()
		data, err := EncodeJSON(s)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	schedule := func(cap int) []byte {
		t.Helper()
		c := ts
		c.MaxDegree = cap
		s, err := c.Schedule(fpTree(11, 8))
		if err != nil {
			t.Fatal(err)
		}
		for _, ph := range s.Phases {
			for _, pl := range ph.Placements {
				if cap > 0 && !pl.Rooted && pl.Degree > cap {
					t.Fatalf("cap %d: floating operator %d scheduled at degree %d",
						cap, pl.Op.ID, pl.Degree)
				}
			}
		}
		return encode(s)
	}

	uncapped := schedule(0)
	if got := schedule(ts.P); !bytes.Equal(got, uncapped) {
		t.Fatal("cap = P changed the schedule bytes")
	}
	for _, cap := range []int{1, 2, 3, 5} {
		first := schedule(cap)
		if bytes.Equal(first, uncapped) && maxFloatingDegree(t, ts, tt) > cap {
			t.Fatalf("cap %d left the schedule identical to uncapped", cap)
		}
		if again := schedule(cap); !bytes.Equal(again, first) {
			t.Fatalf("cap %d: repeated schedule differs", cap)
		}
	}
}

// maxFloatingDegree reports the largest floating-operator degree of the
// uncapped schedule, so the clamp test only demands a byte difference
// when the cap actually bites.
func maxFloatingDegree(t *testing.T, ts TreeScheduler, tt *plan.TaskTree) int {
	t.Helper()
	s, err := ts.Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	max := 0
	for _, ph := range s.Phases {
		for _, pl := range ph.Placements {
			if !pl.Rooted && pl.Degree > max {
				max = pl.Degree
			}
		}
	}
	return max
}
