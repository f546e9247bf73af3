package resource

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mdrs/internal/vector"
)

// NewOverlap and Validate, which callers holding an Overlap literal
// use, accept and refuse the same ε.
func TestNewOverlapValidation(t *testing.T) {
	for _, eps := range []float64{0, 0.5, 1} {
		if _, err := NewOverlap(eps); err != nil {
			t.Errorf("NewOverlap(%g) rejected: %v", eps, err)
		}
		if err := (Overlap{Epsilon: eps}).Validate(); err != nil {
			t.Errorf("Validate(%g) rejected: %v", eps, err)
		}
	}
	for _, eps := range []float64{-0.1, 1.1, math.Nextafter(1, 2), 2, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewOverlap(eps); err == nil {
			t.Errorf("NewOverlap(%g) accepted", eps)
		}
		if err := (Overlap{Epsilon: eps}).Validate(); err == nil {
			t.Errorf("Validate(%g) accepted", eps)
		}
	}
}

func TestMustOverlapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustOverlap(2) did not panic")
		}
	}()
	MustOverlap(2)
}

func TestTSeqExtremes(t *testing.T) {
	w := vector.Of(10, 15)
	// ε = 1: perfect overlap, T = max.
	if got := MustOverlap(1).TSeq(w); got != 15 {
		t.Fatalf("TSeq ε=1 = %g, want 15", got)
	}
	// ε = 0: zero overlap, T = sum.
	if got := MustOverlap(0).TSeq(w); got != 25 {
		t.Fatalf("TSeq ε=0 = %g, want 25", got)
	}
	// ε = 0.5: midpoint.
	if got := MustOverlap(0.5).TSeq(w); math.Abs(got-20) > 1e-12 {
		t.Fatalf("TSeq ε=0.5 = %g, want 20", got)
	}
}

// Section 4.1's constraint: max <= T^seq <= sum for every ε in [0,1].
func TestQuickTSeqWithinBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(6)
		w := vector.New(d)
		for i := range w {
			w[i] = r.Float64() * 50
		}
		eps := r.Float64()
		ts := MustOverlap(eps).TSeq(w)
		return ts >= w.Length()-1e-9 && ts <= w.Sum()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TSeq is monotone in the work vector: w <= w' componentwise implies
// TSeq(w) <= TSeq(w').
func TestQuickTSeqMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(5)
		w := vector.New(d)
		extra := vector.New(d)
		for i := range w {
			w[i] = r.Float64() * 20
			extra[i] = r.Float64() * 20
		}
		ov := MustOverlap(r.Float64())
		return ov.TSeq(w) <= ov.TSeq(w.Add(extra))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// More overlap never costs time: for ε ≤ ε' a non-negative work vector
// has TSeq under ε' at most TSeq under ε, and a site holding the same
// clones finishes no later.
func TestQuickTSeqNonIncreasingInEpsilon(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(6)
		lo := r.Float64()
		less, more := MustOverlap(lo), MustOverlap(lo+(1-lo)*r.Float64())
		a, b := NewSystem(1, d, less), NewSystem(1, d, more)
		for k := 0; k < 1+r.Intn(8); k++ {
			w := vector.New(d)
			for i := range w {
				w[i] = r.Float64() * 50
			}
			if more.TSeq(w) > less.TSeq(w)+1e-9 {
				return false
			}
			a.Assign(0, w)
			b.Assign(0, w)
			if b.TSite(0) > a.TSite(0)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// The paper's worked example (Section 5.2.2) with ε chosen so that
// T1^seq = 22 for W1 = [10 15]: ε(15) + (1-ε)(25) = 22 → ε = 0.3.
// Clone pairs (22,[10 15]) and (10,[10 5]) share a site: the joint load
// [20 20] squeezes into T1 = 22. With (10,[5 10]) instead, resource 2
// congests: T^site = 25.
func TestTSitePaperExample(t *testing.T) {
	ov := MustOverlap(0.3)
	w1 := vector.Of(10, 15)
	if ts := ov.TSeq(w1); math.Abs(ts-22) > 1e-9 {
		t.Fatalf("T1^seq = %g, want 22 (check ε derivation)", ts)
	}

	sys := NewSystem(2, 2, ov)
	sys.Assign(0, w1)
	sys.Assign(0, vector.Of(10, 5))
	if got := sys.TSite(0); math.Abs(got-22) > 1e-9 {
		t.Fatalf("case 1: T^site = %g, want 22", got)
	}

	sys.Assign(1, w1)
	sys.Assign(1, vector.Of(5, 10))
	if got := sys.TSite(1); math.Abs(got-25) > 1e-9 {
		t.Fatalf("case 2: T^site = %g, want 25 (congested resource)", got)
	}
}

func TestSiteAccounting(t *testing.T) {
	sys := NewSystem(4, 2, MustOverlap(0.5))
	if sys.LoadLength(3) != 0 || sys.LoadSum(3) != 0 || sys.TSite(3) != 0 {
		t.Fatal("fresh site not empty")
	}
	sys.Assign(3, vector.Of(1, 2))
	sys.Assign(3, vector.Of(3, 1))
	if !sys.Load(3).ApproxEqual(vector.Of(4, 3), 1e-12) {
		t.Fatalf("Load = %v", sys.Load(3))
	}
	if got := sys.LoadLength(3); got != 4 {
		t.Fatalf("LoadLength = %g", got)
	}
	if got := sys.LoadSum(3); got != 7 {
		t.Fatalf("LoadSum = %g", got)
	}
	for j := 0; j < 3; j++ {
		if sys.TSite(j) != 0 || !sys.Load(j).IsZero() {
			t.Fatalf("site %d loaded by an Assign to site 3", j)
		}
	}
	sys.Reset()
	if sys.LoadLength(3) != 0 || sys.LoadSum(3) != 0 || sys.TSite(3) != 0 || !sys.Load(3).IsZero() {
		t.Fatal("Reset did not clear the site")
	}
}

func TestSiteLoadIsCopy(t *testing.T) {
	sys := NewSystem(2, 2, MustOverlap(1))
	sys.Assign(0, vector.Of(1, 1))
	l := sys.Load(0)
	l[0] = 99
	if sys.LoadLength(0) != 1 || sys.Load(0)[0] != 1 || !sys.Load(1).IsZero() {
		t.Fatal("Load() leaked internal storage")
	}
}

func TestSystemBasics(t *testing.T) {
	sys := NewSystem(4, 3, MustOverlap(0.5))
	if sys.P() != 4 || sys.Dim() != 3 {
		t.Fatalf("P = %d, Dim = %d", sys.P(), sys.Dim())
	}
	sys.Assign(2, vector.Of(5, 1, 1))
	if got := sys.LoadLength(2); got != 5 {
		t.Fatalf("LoadLength = %g", got)
	}
	if got := sys.MaxTSite(); math.Abs(got-6) > 1e-12 { // 0.5*5 + 0.5*7
		t.Fatalf("MaxTSite = %g, want 6", got)
	}
	sys.Reset()
	if sys.MaxTSite() != 0 {
		t.Fatal("Reset did not clear system")
	}
}

// A system is its struct and one row allocation, whatever P is.
func TestNewSystemAllocs(t *testing.T) {
	ov := MustOverlap(0.5)
	for _, p := range []int{1, 128, 4096} {
		if got := testing.AllocsPerRun(20, func() { NewSystem(p, 3, ov) }); got != 2 {
			t.Fatalf("NewSystem(%d, 3) allocates %.0f times, want 2", p, got)
		}
	}
}

func TestNewSystemPanics(t *testing.T) {
	for _, c := range []struct{ p, d int }{{0, 3}, {-1, 3}, {3, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSystem(%d,%d) did not panic", c.p, c.d)
				}
			}()
			NewSystem(c.p, c.d, MustOverlap(0.5))
		}()
	}
}

// An Assign outside [0, P), or of a vector of the wrong dimension,
// panics before it writes: no row — the neighbouring site's load and
// the length, sum and T^seq rows behind the loads — changes.
func TestAssignOutsideSystemPanics(t *testing.T) {
	const p, d = 4, 3
	sys := NewSystem(p, d, MustOverlap(0.5))
	for j := 0; j < p; j++ {
		sys.Assign(j, vector.Of(float64(j+1), 2, 3))
	}
	snapshot := func() (rows [][]float64) {
		for j := 0; j < p; j++ {
			rows = append(rows, append(sys.Load(j), sys.LoadLength(j), sys.LoadSum(j), sys.TSite(j)))
		}
		return rows
	}
	before := snapshot()
	for _, c := range []struct {
		j int
		w vector.Vector
	}{{p, vector.Of(7, 7, 7)}, {-1, vector.Of(7, 7, 7)}, {p + 1, vector.Of(7, 7, 7)}, {1, vector.Of(7, 7)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Assign(%d, %v) did not panic", c.j, c.w)
				}
			}()
			sys.Assign(c.j, c.w)
		}()
		if got := snapshot(); !reflect.DeepEqual(got, before) {
			t.Fatalf("Assign(%d, %v) changed the rows: %v, was %v", c.j, c.w, got, before)
		}
	}
}

// Property: T^site(s) is monotone under Assign.
func TestQuickTSiteMonotoneUnderAssign(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(4)
		sys := NewSystem(1, d, MustOverlap(r.Float64()))
		prev := 0.0
		for k := 0; k < 1+r.Intn(10); k++ {
			w := vector.New(d)
			for i := range w {
				w[i] = r.Float64() * 10
			}
			sys.Assign(0, w)
			cur := sys.TSite(0)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the incremental bookkeeping is Equation 2 recomputed from
// scratch. After every Assign, to a random site of a random system,
// that site's TSite and LoadLength equal Overlap.TSite and
// vector.SetLength over the clones it holds, bit for bit, its LoadSum
// equals the sum of those clones' sums to rounding, and MaxTSite is the
// largest Overlap.TSite over all sites.
func TestQuickSiteBookkeeping(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, d := 1+r.Intn(6), 1+r.Intn(4)
		ov := MustOverlap(r.Float64())
		sys := NewSystem(p, d, ov)
		clones := make([][]vector.Vector, p)
		for k := 0; k < r.Intn(24); k++ {
			w := vector.New(d)
			for i := range w {
				if r.Intn(4) > 0 {
					w[i] = r.Float64() * 10
				}
			}
			j := r.Intn(p)
			sys.Assign(j, w)
			clones[j] = append(clones[j], w)
			sum := 0.0
			for _, c := range clones[j] {
				sum += c.Sum()
			}
			if sys.TSite(j) != ov.TSite(clones[j]) ||
				sys.LoadLength(j) != vector.SetLength(clones[j]) ||
				math.Abs(sys.LoadSum(j)-sum) > 1e-9 {
				return false
			}
			maxT := 0.0
			for _, cs := range clones {
				maxT = math.Max(maxT, ov.TSite(cs))
			}
			if sys.MaxTSite() != maxT {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: assigning a work run through AssignRun leaves every site
// bit for bit as assigning its clones one by one with Assign does, in
// LoadLength, LoadSum and TSite, whatever the sites already hold.
func TestQuickAssignRunMatchesAssign(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, d := 1+r.Intn(8), 1+r.Intn(4)
		ov := MustOverlap([...]float64{0, 1, r.Float64()}[r.Intn(3)])
		run, one := NewSystem(p, d, ov), NewSystem(p, d, ov)
		for k := 0; k < 1+r.Intn(12); k++ {
			w := vector.New(d)
			for i := range w {
				if r.Intn(4) > 0 {
					w[i] = r.Float64() * 10
				}
			}
			sites := r.Perm(p)[:r.Intn(p+1)]
			run.AssignRun(sites, w)
			for _, j := range sites {
				one.Assign(j, w)
			}
			for j := 0; j < p; j++ {
				if math.Float64bits(run.LoadLength(j)) != math.Float64bits(one.LoadLength(j)) ||
					math.Float64bits(run.LoadSum(j)) != math.Float64bits(one.LoadSum(j)) ||
					math.Float64bits(run.TSite(j)) != math.Float64bits(one.TSite(j)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSystemAssign(b *testing.B) {
	sys := NewSystem(1, 3, MustOverlap(0.5))
	w := vector.Of(1, 2, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Reset()
		for k := 0; k < 16; k++ {
			sys.Assign(0, w)
		}
		_ = sys.TSite(0)
	}
}
