package costmodel

import (
	"math"
	"testing"

	"mdrs/internal/resource"
)

func TestZeroTupleOperators(t *testing.T) {
	m := Default()
	for _, kind := range []OpKind{Scan, Build, Probe, Store} {
		c := m.Cost(OpSpec{Kind: kind, InTuples: 0, NetIn: true, NetOut: true})
		if c.ProcessingArea() != 0 {
			t.Errorf("%v with no input has processing area %g", kind, c.ProcessingArea())
		}
		if c.D != 0 {
			t.Errorf("%v with no input moves %g bytes", kind, c.D)
		}
		// Even an empty operator is schedulable sequentially.
		if n := m.NMax(c, 0.7); n != 1 {
			t.Errorf("%v: NMax = %d, want 1", kind, n)
		}
		if tp := m.TPar(c, 1, resource.MustOverlap(0.5)); tp <= 0 {
			t.Errorf("%v: startup missing from empty op: %g", kind, tp)
		}
	}
}

// A MIPS rate Validate accepts can still make W_p infinite: at f = 0,
// N_max's numerator is 0·Inf = NaN, which NMax once turned into
// math.MinInt64 and Degree into a panic. N_max is 1 there, as for any
// numerator below one α.
func TestNMaxOfInfiniteWork(t *testing.T) {
	m := Default()
	m.Params.MIPS = 5e-324
	if err := m.Params.Validate(); err != nil {
		t.Fatal(err)
	}
	c := m.Cost(OpSpec{Kind: Scan, InTuples: 1000, NetOut: true})
	for f, want := range map[float64]int{0: 1, 0.7: math.MaxInt} {
		if n := m.NMax(c, f); n != want {
			t.Errorf("f = %g: NMax = %d, want %d", f, n, want)
		}
		if n := m.Degree(c, f, 16, resource.MustOverlap(0.5)); n < 1 || n > 16 {
			t.Errorf("f = %g: Degree = %d, want within [1, 16]", f, n)
		}
	}
}

func TestDegreeWithSingleSite(t *testing.T) {
	m := Default()
	ov := resource.MustOverlap(0.5)
	c := m.Cost(OpSpec{Kind: Scan, InTuples: 100000, NetOut: true})
	if n := m.Degree(c, 0.9, 1, ov); n != 1 {
		t.Fatalf("Degree with P=1 = %d", n)
	}
}

func TestScanResultDefaultsToInput(t *testing.T) {
	m := Default()
	// ResultTuples left zero: a scan streams everything it reads.
	withDefault := m.Cost(OpSpec{Kind: Scan, InTuples: 5000, NetOut: true})
	explicit := m.Cost(OpSpec{Kind: Scan, InTuples: 5000, ResultTuples: 5000, NetOut: true})
	if withDefault.D != explicit.D {
		t.Fatalf("default result cardinality differs: D %g vs %g", withDefault.D, explicit.D)
	}
}

func TestProbeOutputOnlyCharged(t *testing.T) {
	m := Default()
	// A probe with local input (NetIn=false) pays network only for its
	// output.
	c := m.Cost(OpSpec{Kind: Probe, InTuples: 1000, ResultTuples: 2000, NetOut: true})
	if c.D != m.Params.Bytes(2000) {
		t.Fatalf("D = %g, want %g", c.D, m.Params.Bytes(2000))
	}
}

func TestCommAreaGrowsLinearlyInN(t *testing.T) {
	m := Default()
	c := m.Cost(OpSpec{Kind: Scan, InTuples: 10000, NetOut: true})
	d1 := m.CommArea(c, 2) - m.CommArea(c, 1)
	d2 := m.CommArea(c, 50) - m.CommArea(c, 49)
	if math.Abs(d1-m.Params.Alpha) > 1e-12 || math.Abs(d1-d2) > 1e-12 {
		t.Fatalf("startup increments %g, %g; want α = %g", d1, d2, m.Params.Alpha)
	}
}

func TestTotalWorkMatchesAreaIdentity(t *testing.T) {
	// Section 5.1: Σ_k W_op[k] = W_p(op) + W_c(op, N) for every N.
	m := Default()
	c := m.Cost(OpSpec{Kind: Probe, InTuples: 30000, ResultTuples: 60000, NetIn: true, NetOut: true})
	for _, n := range []int{1, 2, 7, 63, 140} {
		got := m.TotalWork(c, n).Sum()
		want := c.ProcessingArea() + m.CommArea(c, n)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("N=%d: Σ W = %g, W_p + W_c = %g", n, got, want)
		}
	}
}

func TestNOptShrinksOnSlowNetwork(t *testing.T) {
	// A 100x more expensive startup pushes the optimal degree down.
	ov := resource.MustOverlap(0.5)
	cheap := Default()
	expensive := DefaultParams()
	expensive.Alpha *= 100
	exp := MustNew(expensive)

	spec := OpSpec{Kind: Scan, InTuples: 50000, NetOut: true}
	nCheap := cheap.NOpt(cheap.Cost(spec), 140, ov)
	nExp := exp.NOpt(exp.Cost(spec), 140, ov)
	if nExp >= nCheap {
		t.Fatalf("expensive startup did not reduce NOpt: %d vs %d", nExp, nCheap)
	}
}

func TestIsCoarseGrainBoundaryExact(t *testing.T) {
	m := Default()
	c := m.Cost(OpSpec{Kind: Scan, InTuples: 20000, NetOut: true})
	f := 0.5
	n := m.NMax(c, f)
	// Definition 4.1 holds at N_max with the exact α/β arithmetic.
	if !m.IsCoarseGrain(c, n, f) {
		t.Fatalf("N_max = %d violates its own definition", n)
	}
}
