package resource

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mdrs/internal/vector"
)

func TestNewOverlapValidation(t *testing.T) {
	for _, eps := range []float64{0, 0.5, 1} {
		if _, err := NewOverlap(eps); err != nil {
			t.Errorf("NewOverlap(%g) rejected: %v", eps, err)
		}
	}
	for _, eps := range []float64{-0.1, 1.1, 2} {
		if _, err := NewOverlap(eps); err == nil {
			t.Errorf("NewOverlap(%g) accepted", eps)
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
		a, b := NewSite(0, d, less), NewSite(0, d, more)
		for k := 0; k < 1+r.Intn(8); k++ {
			w := vector.New(d)
			for i := range w {
				w[i] = r.Float64() * 50
			}
			if more.TSeq(w) > less.TSeq(w)+1e-9 {
				return false
			}
			a.Assign(w)
			b.Assign(w)
			if b.TSite() > a.TSite()+1e-9 {
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

	s := NewSite(0, 2, ov)
	s.Assign(w1)
	s.Assign(vector.Of(10, 5))
	if got := s.TSite(); math.Abs(got-22) > 1e-9 {
		t.Fatalf("case 1: T^site = %g, want 22", got)
	}

	s2 := NewSite(1, 2, ov)
	s2.Assign(w1)
	s2.Assign(vector.Of(5, 10))
	if got := s2.TSite(); math.Abs(got-25) > 1e-9 {
		t.Fatalf("case 2: T^site = %g, want 25 (congested resource)", got)
	}
}

func TestSiteAccounting(t *testing.T) {
	s := NewSite(3, 2, MustOverlap(0.5))
	if s.NumClones() != 0 || s.LoadLength() != 0 || s.TSite() != 0 {
		t.Fatal("fresh site not empty")
	}
	s.Assign(vector.Of(1, 2))
	s.Assign(vector.Of(3, 1))
	if s.NumClones() != 2 {
		t.Fatalf("NumClones = %d", s.NumClones())
	}
	if !s.Load().ApproxEqual(vector.Of(4, 3), 1e-12) {
		t.Fatalf("Load = %v", s.Load())
	}
	if got := s.LoadLength(); got != 4 {
		t.Fatalf("LoadLength = %g", got)
	}
	s.Reset()
	if s.NumClones() != 0 || s.LoadLength() != 0 || s.MaxTSeq() != 0 {
		t.Fatal("Reset did not clear the site")
	}
}

func TestSiteLoadIsCopy(t *testing.T) {
	s := NewSite(0, 2, MustOverlap(1))
	s.Assign(vector.Of(1, 1))
	l := s.Load()
	l[0] = 99
	if s.LoadLength() != 1 {
		t.Fatal("Load() leaked internal storage")
	}
}

func TestSystemBasics(t *testing.T) {
	sys := NewSystem(4, 3, MustOverlap(0.5))
	if sys.P() != 4 || sys.Dim() != 3 {
		t.Fatalf("P = %d, Dim = %d", sys.P(), sys.Dim())
	}
	for j := 0; j < 4; j++ {
		if sys.Site(j).ID != j {
			t.Fatalf("site %d has ID %d", j, sys.Site(j).ID)
		}
	}
	sys.Site(2).Assign(vector.Of(5, 1, 1))
	if got := sys.MaxLoadLength(); got != 5 {
		t.Fatalf("MaxLoadLength = %g", got)
	}
	if got := sys.MaxTSite(); math.Abs(got-6) > 1e-12 { // 0.5*5 + 0.5*7
		t.Fatalf("MaxTSite = %g, want 6", got)
	}
	sys.Reset()
	if sys.MaxTSite() != 0 {
		t.Fatal("Reset did not clear system")
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

// Property: T^site(s) is exactly max(maxTSeq, loadLength) and is
// monotone under Assign.
func TestQuickTSiteMonotoneUnderAssign(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(4)
		ov := MustOverlap(r.Float64())
		s := NewSite(0, d, ov)
		prev := 0.0
		for k := 0; k < 1+r.Intn(10); k++ {
			w := vector.New(d)
			for i := range w {
				w[i] = r.Float64() * 10
			}
			s.Assign(w)
			cur := s.TSite()
			if cur < prev-1e-9 {
				return false
			}
			want := math.Max(s.MaxTSeq(), s.LoadLength())
			if math.Abs(cur-want) > 1e-9 {
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

// Property: the incremental maxSeq/load bookkeeping in Site matches a
// from-scratch recomputation over Clones().
func TestQuickSiteBookkeeping(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(4)
		ov := MustOverlap(r.Float64())
		s := NewSite(0, d, ov)
		for k := 0; k < r.Intn(12); k++ {
			w := vector.New(d)
			for i := range w {
				w[i] = r.Float64() * 10
			}
			s.Assign(w)
		}
		maxSeq, load := 0.0, vector.New(d)
		for _, w := range s.Clones() {
			if ts := ov.TSeq(w); ts > maxSeq {
				maxSeq = ts
			}
			load.AddInPlace(w)
		}
		return math.Abs(maxSeq-s.MaxTSeq()) < 1e-9 &&
			load.ApproxEqual(s.Load(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSiteAssign(b *testing.B) {
	ov := MustOverlap(0.5)
	w := vector.Of(1, 2, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSite(0, 3, ov)
		for k := 0; k < 16; k++ {
			s.Assign(w)
		}
		_ = s.TSite()
	}
}
