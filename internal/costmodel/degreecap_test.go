package costmodel

import (
	"testing"

	"mdrs/internal/resource"
)

// DegreeCapped with cap 0 (and negative caps, which normalize to 0) is
// exactly Degree; a positive cap clamps the result without ever pushing
// it below 1 or changing an already-smaller answer.
func TestDegreeCappedClampsDegree(t *testing.T) {
	m := Model{Params: DefaultParams()}
	ov := resource.MustOverlap(0.5)
	spec := OpSpec{Kind: Probe, InTuples: 200000, ResultTuples: 50000}
	c := m.Cost(spec)
	const f, p = 0.3, 16

	base := m.Degree(c, f, p, ov)
	if base < 1 {
		t.Fatalf("uncapped degree %d < 1", base)
	}
	if got := m.DegreeCapped(c, f, p, ov, 0); got != base {
		t.Fatalf("cap 0: got %d, want uncapped %d", got, base)
	}
	for cap := 1; cap <= p; cap++ {
		got := m.DegreeCapped(c, f, p, ov, cap)
		if got > cap {
			t.Fatalf("cap %d: degree %d exceeds the cap", cap, got)
		}
		if got < 1 {
			t.Fatalf("cap %d: degree %d < 1", cap, got)
		}
		if cap >= base && got != base {
			t.Fatalf("cap %d above uncapped %d changed the degree to %d", cap, base, got)
		}
	}
	// A cap above P is inert: min{N_max, N_opt, P} already bounds it.
	if got := m.DegreeCapped(c, f, p, ov, p+100); got != base {
		t.Fatalf("cap beyond P changed the degree: %d != %d", got, base)
	}
}

// The capped degree re-minimizes NOpt under the clamped range: the
// answer under cap k must equal Degree computed as if the system had
// min(P, cap-adjusted NMax) sites of headroom, i.e. it is always the
// cheapest degree not exceeding the cap — never just min(cap, Degree),
// which could miss a lower NOpt inside the clamped range.
func TestDegreeCappedMonotoneInCap(t *testing.T) {
	m := Model{Params: DefaultParams()}
	ov := resource.MustOverlap(0.5)
	spec := OpSpec{Kind: Build, InTuples: 500000}
	c := m.Cost(spec)
	const f, p = 0.3, 32

	prev := 0
	for cap := 1; cap <= p; cap++ {
		got := m.DegreeCapped(c, f, p, ov, cap)
		if got < prev {
			t.Fatalf("degree not monotone in cap: cap %d gives %d < %d", cap, got, prev)
		}
		prev = got
	}
}

// Answers computed under different caps never alias, and every answer
// read through the cache is bit-identical to a fresh model computation.
func TestCacheDegreeCappedKeyedByCap(t *testing.T) {
	m := Model{Params: DefaultParams()}
	ov := resource.MustOverlap(0.5)
	cache := NewCache(m)
	spec := OpSpec{Kind: Probe, InTuples: 300000, ResultTuples: 80000}
	const f, p = 0.3, 16

	for _, cap := range []int{0, 1, 2, 4, 8, 0, 1, 2, 4, 8} {
		want := m.DegreeCapped(m.Cost(spec), f, p, ov, cap)
		if got := cache.DegreeCapped(spec, f, p, ov, cap); got != want {
			t.Fatalf("cap %d: cached %d != fresh %d", cap, got, want)
		}
	}
	// Negative caps mean uncapped, as 0 does.
	if got, want := cache.DegreeCapped(spec, f, p, ov, -3), cache.DegreeCapped(spec, f, p, ov, 0); got != want {
		t.Fatalf("negative cap: %d != uncapped %d", got, want)
	}
	hits, _ := cache.Stats()
	if hits == 0 {
		t.Fatal("repeated capped lookups never hit the cost memo")
	}
}
