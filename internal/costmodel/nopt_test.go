package costmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mdrs/internal/resource"
	"mdrs/internal/vector"
)

// nOptScan is the definition NOpt's search must reproduce: every degree
// in [1, maxN] in turn, moving to n only when T^par(n) is more than
// 1e-15 below the best so far.
func nOptScan(m Model, c OpCost, maxN int, ov resource.Overlap) int {
	best, bestT := 1, math.Inf(1)
	for n := 1; n <= maxN; n++ {
		if t := m.TPar(c, n, ov); t < bestT-1e-15 {
			best, bestT = n, t
		}
	}
	return best
}

// randomNOptCase draws a spec's cost under random Params — α
// log-uniform in [1e-300, 1e3] or, half the time, in [1e-6, 10] where
// T^par mostly bottoms out inside the range; MIPS up to 1e12, so that
// some costs sit near the 1e-15 tie rule; β sometimes 0, CPU or disk
// work sometimes 0 — with ε from {0, 0.5, 1, U(0,1)} and maxN from
// {1, 2, 3, 7, 64, 128, U[1, 600]}.
func randomNOptCase(r *rand.Rand) (Model, OpCost, int, resource.Overlap) {
	p := DefaultParams()
	p.Alpha = math.Pow(10, -300+r.Float64()*303)
	if r.Intn(2) == 0 {
		p.Alpha = math.Pow(10, -6+r.Float64()*7)
	}
	p.MIPS = math.Pow(10, -3+r.Float64()*15)
	p.DiskPageTime = math.Pow(10, -12+r.Float64()*11)
	p.Beta = math.Pow(10, -12+r.Float64()*8)
	switch r.Intn(4) {
	case 0:
		p.Beta = 0
	case 1:
		p.ReadPageInstr, p.WritePageInstr, p.ExtractInstr, p.HashInstr, p.ProbeInstr = 0, 0, 0, 0, 0
	case 2:
		p.DiskPageTime = 0
	}
	spec := OpSpec{
		Kind:         OpKind(r.Intn(4)),
		InTuples:     1 + r.Intn(1<<(1+r.Intn(30))),
		ResultTuples: r.Intn(1 << (1 + r.Intn(30))),
		NetIn:        r.Intn(2) == 0,
		NetOut:       r.Intn(2) == 0,
	}
	eps := [...]float64{0, 0.5, 1, r.Float64()}[r.Intn(4)]
	maxN := [...]int{1, 2, 3, 7, 64, 128, 1 + r.Intn(600)}[r.Intn(7)]
	m := Model{Params: p}
	return m, m.Cost(spec), maxN, resource.MustOverlap(eps)
}

// The search returns exactly what the scan returns on random specs and
// parameters, including near-flat and tiny-α cases where the scan's
// 1e-15 tie rule decides.
func TestNOptMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	for i := 0; i < 40000; i++ {
		m, c, maxN, ov := randomNOptCase(r)
		if got, want := m.NOpt(c, maxN, ov), nOptScan(m, c, maxN, ov); got != want {
			t.Fatalf("case %d: NOpt = %d, scan = %d (cost %+v, maxN %d, ε %g, α %g)",
				i, got, want, c, maxN, ov.Epsilon, m.Params.Alpha)
		}
	}
}

// On the Table 2 parameters the search agrees with the scan for every
// maxN up to 600, at every ε tested, on costs where T^par bottoms out
// inside the range and where it decreases throughout.
func TestNOptMatchesScanEveryMaxN(t *testing.T) {
	m := Default()
	specs := []OpSpec{
		{Kind: Scan, InTuples: 100000, NetOut: true},
		{Kind: Probe, InTuples: 30000, ResultTuples: 60000, NetIn: true, NetOut: true},
		{Kind: Build, InTuples: 500000, NetIn: true},
		{Kind: Store, InTuples: 3, NetIn: true},
	}
	for _, spec := range specs {
		c := m.Cost(spec)
		for _, eps := range []float64{0, 0.3, 0.5, 1} {
			ov := resource.MustOverlap(eps)
			for maxN := 1; maxN <= 600; maxN++ {
				if got, want := m.NOpt(c, maxN, ov), nOptScan(m, c, maxN, ov); got != want {
					t.Fatalf("%+v ε=%g maxN=%d: NOpt = %d, scan = %d", spec, eps, maxN, got, want)
				}
			}
		}
	}
}

// FuzzNOpt holds the search to the scan on raw cost vectors and
// parameters: any non-negative finite work, traffic and β, a positive
// finite α, ε in [0, 1] and maxN in [1, 2048]. Inputs outside that
// domain are skipped. Overflowing products (T^par = +Inf or NaN at some
// degrees, T^par(1) among them) are inside it.
func FuzzNOpt(f *testing.F) {
	f.Add(0.1, 0.2, 1e6, 0.015, 0.6e-6, 0.5, 128)
	f.Add(0.0, 0.0, 0.0, 1e-300, 0.0, 0.0, 600)
	f.Add(1e-14, 0.0, 0.0, 1e-300, 0.0, 1.0, 64)
	f.Add(0.0, 3.0, 0.0, 1e3, 0.0, 0.25, 7)
	f.Add(5e-324, 5e-324, 5e-324, 5e-324, 5e-324, 1.0, 3)
	f.Add(1e308, 1e308, 0.0, 1.0, 0.0, 0.5, 2)
	f.Add(1e308, 0.0, 1e308, 1e300, 10.0, 0.0, 2048)
	f.Add(2e-15, 1e-15, 0.0, 1e-17, 0.0, 0.5, 1)
	f.Add(1e308, 412.0, 1e308, 5e300, 1.0, 1.0, 1976)
	f.Add(9e-14, 0.0, 0.0, 1e-300, 0.0, 1.0, 64)
	f.Fuzz(func(t *testing.T, cpu, disk, bytes, alpha, beta, eps float64, maxN int) {
		fin := func(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }
		if !fin(cpu) || !fin(disk) || !fin(bytes) || !fin(beta) || !(alpha > 0) || math.IsInf(alpha, 1) ||
			!(eps >= 0 && eps <= 1) || maxN < 1 || maxN > 2048 {
			t.Skip()
		}
		m := Default()
		m.Params.Alpha, m.Params.Beta = alpha, beta
		c := OpCost{Processing: vector.Vector{cpu, disk, 0}, D: bytes}
		ov := resource.Overlap{Epsilon: eps}
		if got, want := m.NOpt(c, maxN, ov), nOptScan(m, c, maxN, ov); got != want {
			t.Fatalf("NOpt = %d, scan = %d (cost %+v, maxN %d, ε %g, α %g, β %g)",
				got, want, c, maxN, eps, alpha, beta)
		}
	})
}

// nOptSink keeps the benchmarked call from being optimized away.
var nOptSink int

// BenchmarkNOpt times one search at three widths, so the O(log maxN)
// shape shows: the scan this replaced took maxN evaluations.
func BenchmarkNOpt(b *testing.B) {
	m := Default()
	ov := resource.MustOverlap(0.5)
	c := m.Cost(OpSpec{Kind: Scan, InTuples: 100000, NetOut: true})
	for _, maxN := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("maxN=%d", maxN), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nOptSink = m.NOpt(c, maxN, ov)
			}
		})
	}
}
