package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mdrs/internal/costmodel"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
	"mdrs/internal/vector"
)

func TestSimulateSiteEmpty(t *testing.T) {
	got, err := SimulateSite(resource.MustOverlap(0.5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("empty site makespan = %g", got)
	}
}

func TestSimulateSiteSingleClone(t *testing.T) {
	ov := resource.MustOverlap(0.3)
	w := vector.Of(10, 15)
	got, err := SimulateSite(ov, []vector.Vector{w})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-ov.TSeq(w)) > 1e-9 {
		t.Fatalf("single clone makespan %g != TSeq %g", got, ov.TSeq(w))
	}
}

func TestSimulateSiteZeroWorkClone(t *testing.T) {
	ov := resource.MustOverlap(1)
	got, err := SimulateSite(ov, []vector.Vector{vector.Of(0, 0), vector.Of(4, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-4) > 1e-9 {
		t.Fatalf("makespan = %g, want 4", got)
	}
}

func TestSimulateSiteRejectsBadInput(t *testing.T) {
	ov := resource.MustOverlap(0.5)
	if _, err := SimulateSite(ov, []vector.Vector{vector.Of(-1, 0)}); err == nil {
		t.Error("negative work accepted")
	}
	if _, err := SimulateSite(ov, []vector.Vector{vector.Of(1, 2), vector.Of(1, 2, 3)}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestSimulateSiteIdenticalClonesMatchAnalytic(t *testing.T) {
	// n identical clones: equal-stretch is optimal, so the simulated
	// makespan equals Equation 2 exactly.
	ov := resource.MustOverlap(1)
	w := vector.Of(3, 1)
	for n := 1; n <= 6; n++ {
		clones := make([]vector.Vector, n)
		for i := range clones {
			clones[i] = w
		}
		simT, err := SimulateSite(ov, clones)
		if err != nil {
			t.Fatal(err)
		}
		want := ov.TSite(clones) // max(3, 3n)
		if math.Abs(simT-want) > 1e-9 {
			t.Fatalf("n=%d: sim %g != analytic %g", n, simT, want)
		}
	}
}

func TestSimulatePaperExample(t *testing.T) {
	// Section 5.2.2 with ε = 0.3: clones [10 15] (T=22) and [10 5] (T=10)
	// fit in 22 analytically; the congested pair [10 15] + [5 10] costs 25.
	ov := resource.MustOverlap(0.3)
	sim1, err := SimulateSite(ov, []vector.Vector{vector.Of(10, 15), vector.Of(10, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if sim1 < 22-1e-9 {
		t.Fatalf("sim %g below analytic 22", sim1)
	}
	sim2, err := SimulateSite(ov, []vector.Vector{vector.Of(10, 15), vector.Of(5, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if sim2 < 25-1e-9 {
		t.Fatalf("sim %g below analytic 25", sim2)
	}
}

// The analytic side of a comparison is the scheduler's own site model.
func TestAnalyticTSiteMatchesResourceSite(t *testing.T) {
	ov := resource.MustOverlap(0.4)
	clones := []vector.Vector{vector.Of(1, 5, 2), vector.Of(4, 1, 1), vector.Of(2, 2, 2)}
	sys := resource.NewSystem(1, 3, ov)
	for _, w := range clones {
		sys.Assign(0, w)
	}
	per, _, err := SimulateSystem(ov, [][]vector.Vector{clones})
	if err != nil {
		t.Fatal(err)
	}
	if per[0].Analytic != sys.TSite(0) {
		t.Fatalf("analytic T^site %g != System.TSite %g", per[0].Analytic, sys.TSite(0))
	}
}

// Property: the fluid makespan is always in [analytic, Σ T_c]: feasible
// sharing can't beat Equation 2, and equal-stretch can't be worse than
// full serialization.
func TestQuickSimulatedWithinEnvelope(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ov := resource.MustOverlap(r.Float64())
		d := 1 + r.Intn(4)
		n := 1 + r.Intn(8)
		clones := make([]vector.Vector, n)
		sumT := 0.0
		for i := range clones {
			w := vector.New(d)
			for j := range w {
				w[j] = r.Float64() * 10
			}
			clones[i] = w
			sumT += ov.TSeq(w)
		}
		simT, err := SimulateSite(ov, clones)
		if err != nil {
			return false
		}
		return simT >= ov.TSite(clones)-1e-9 && simT <= sumT+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: with d = 1, equal-stretch sharing of a single resource is
// work-conserving, so the simulated makespan equals the analytic one
// exactly: max(max T_c, Σ W_c).
func TestQuickOneDimensionalExact(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ov := resource.MustOverlap(r.Float64())
		n := 1 + r.Intn(8)
		clones := make([]vector.Vector, n)
		for i := range clones {
			clones[i] = vector.Of(r.Float64() * 10)
		}
		simT, err := SimulateSite(ov, clones)
		if err != nil {
			return false
		}
		return math.Abs(simT-ov.TSite(clones)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// simulateSiteQuadratic is the pre-optimization O(n²·d) event loop,
// kept verbatim as the oracle for the incremental-demand rewrite: each
// event rebuilds the aggregate demand and rescans all survivors for the
// next completion.
func simulateSiteQuadratic(ov resource.Overlap, clones []vector.Vector) (float64, error) {
	type state struct {
		rate      vector.Vector
		remaining float64
	}
	var active []*state
	d := -1
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
			continue
		}
		active = append(active, &state{rate: w.Scale(1 / t), remaining: t})
	}
	now := 0.0
	for len(active) > 0 {
		demand := vector.New(d)
		for _, s := range active {
			demand.AddInPlace(s.rate)
		}
		lambda := 1.0
		if m := demand.Length(); m > 1 {
			lambda = 1 / m
		}
		minRem := math.Inf(1)
		for _, s := range active {
			if s.remaining < minRem {
				minRem = s.remaining
			}
		}
		now += minRem / lambda
		next := active[:0]
		for _, s := range active {
			s.remaining -= minRem
			if s.remaining > 1e-12 {
				next = append(next, s)
			}
		}
		active = next
	}
	return now, nil
}

// Property: the incremental event loop agrees with the quadratic
// reference to floating-point tolerance on random clone sets (the two
// accumulate the demand vector and the clock in different orders, so
// exact bit equality is not expected — equality of the fluid model is).
func TestQuickSimulateSiteMatchesQuadraticReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ov := resource.MustOverlap(r.Float64())
		d := 1 + r.Intn(4)
		n := 1 + r.Intn(40)
		clones := make([]vector.Vector, n)
		for i := range clones {
			w := vector.New(d)
			for j := range w {
				w[j] = r.Float64() * 10
			}
			// Sprinkle in zero-work and duplicate-time clones: the retire
			// loop's tie handling is where the two loops could diverge.
			if r.Intn(7) == 0 {
				for j := range w {
					w[j] = 0
				}
			}
			if i > 0 && r.Intn(5) == 0 {
				copy(w, clones[i-1])
			}
			clones[i] = w
		}
		got, err1 := SimulateSite(ov, clones)
		want, err2 := simulateSiteQuadratic(ov, clones)
		if err1 != nil || err2 != nil {
			return false
		}
		tol := 1e-9 * math.Max(1, want)
		return math.Abs(got-want) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateSystem(t *testing.T) {
	ov := resource.MustOverlap(1)
	siteClones := [][]vector.Vector{
		{vector.Of(4, 0), vector.Of(0, 4)},
		{vector.Of(2, 2)},
		nil,
	}
	per, overall, err := SimulateSystem(ov, siteClones)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 3 {
		t.Fatalf("per-site count = %d", len(per))
	}
	if per[2].Analytic != 0 || per[2].Simulated != 0 {
		t.Fatalf("empty site nonzero: %+v", per[2])
	}
	if overall.Analytic != 4 {
		t.Fatalf("overall analytic = %g, want 4", overall.Analytic)
	}
	if overall.Simulated < overall.Analytic-1e-9 {
		t.Fatalf("overall sim %g below analytic %g", overall.Simulated, overall.Analytic)
	}
}

// The system fan-out must be invisible: every pool width yields exactly
// the same per-site comparisons and overall maxima.
func TestSimulateSystemWorkersDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	ov := resource.MustOverlap(0.5)
	siteClones := make([][]vector.Vector, 64)
	for j := range siteClones {
		for c := 0; c < r.Intn(6); c++ {
			w := vector.New(3)
			for k := range w {
				w[k] = r.Float64() * 10
			}
			siteClones[j] = append(siteClones[j], w)
		}
	}
	refPer, refAll, err := SimulateSystemWorkers(ov, siteClones, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		per, all, err := SimulateSystemWorkers(ov, siteClones, w)
		if err != nil {
			t.Fatal(err)
		}
		if all != refAll {
			t.Fatalf("workers=%d: overall %+v != %+v", w, all, refAll)
		}
		for j := range per {
			if per[j] != refPer[j] {
				t.Fatalf("workers=%d: site %d %+v != %+v", w, j, per[j], refPer[j])
			}
		}
	}
}

// With several failing sites the lowest-indexed failure must win for
// every pool width — the serial index-order reduction, not goroutine
// scheduling, selects the reported error.
func TestSimulateSystemWorkersDeterministicError(t *testing.T) {
	siteClones := [][]vector.Vector{
		{vector.Of(1, 2)},
		{vector.Of(-1, 0)},                    // invalid: negative work
		{vector.Of(1, 2, 3), vector.Of(1, 2)}, // invalid: dimension mismatch
	}
	ov := resource.MustOverlap(0.5)
	for _, w := range []int{1, 2, 8} {
		_, _, err := SimulateSystemWorkers(ov, siteClones, w)
		if err == nil {
			t.Fatalf("workers=%d: invalid input accepted", w)
		}
		if got := err.Error(); !strings.Contains(got, "site 1") {
			t.Fatalf("workers=%d: error %q does not name the lowest failing site", w, got)
		}
	}
}

func TestRatio(t *testing.T) {
	if r := (SiteComparison{Analytic: 2, Simulated: 3}).Ratio(); math.Abs(r-1.5) > 1e-12 {
		t.Fatalf("Ratio = %g", r)
	}
	if r := (SiteComparison{}).Ratio(); r != 1 {
		t.Fatalf("zero Ratio = %g", r)
	}
	if r := (SiteComparison{Simulated: 1}).Ratio(); !math.IsInf(r, 1) {
		t.Fatalf("Ratio with zero analytic = %g", r)
	}
}

func TestSimulateScheduleTracksAnalyticModel(t *testing.T) {
	// Replay a real TreeSchedule through the simulator: the simulated
	// response must be >= the analytic one but within a modest factor
	// (the equal-stretch policy wastes little on balanced packings).
	r := rand.New(rand.NewSource(77))
	pl := query.MustRandom(r, query.DefaultGenConfig(15))
	tt := plan.MustNewTaskTree(plan.MustExpand(pl))
	ov := resource.MustOverlap(0.5)
	s, err := sched.TreeScheduler{
		Model: costmodel.Default(), Overlap: ov, P: 16, F: 0.7,
	}.Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := SimulateSchedule(ov, s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cmp.Analytic-s.Response) > 1e-6 {
		t.Fatalf("analytic replay %g != schedule response %g", cmp.Analytic, s.Response)
	}
	if cmp.Simulated < cmp.Analytic-1e-9 {
		t.Fatalf("simulated %g below analytic %g", cmp.Simulated, cmp.Analytic)
	}
	if cmp.Simulated > cmp.Analytic*2 {
		t.Fatalf("simulated %g more than 2x analytic %g — model badly violated",
			cmp.Simulated, cmp.Analytic)
	}
}

func BenchmarkSimulateSite(b *testing.B) {
	ov := resource.MustOverlap(0.5)
	for _, n := range []int{10, 32, 100, 1000} {
		r := rand.New(rand.NewSource(1))
		clones := make([]vector.Vector, n)
		for i := range clones {
			w := vector.New(3)
			for j := range w {
				w[j] = r.Float64() * 10
			}
			clones[i] = w
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SimulateSite(ov, clones); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulateSiteQuadratic is the retired O(n²·d) loop at the
// same sizes, so `go test -bench SimulateSite` shows the asymptotic win
// side by side (at n=1000 the gap is two orders of magnitude).
func BenchmarkSimulateSiteQuadratic(b *testing.B) {
	ov := resource.MustOverlap(0.5)
	for _, n := range []int{10, 100, 1000} {
		r := rand.New(rand.NewSource(1))
		clones := make([]vector.Vector, n)
		for i := range clones {
			w := vector.New(3)
			for j := range w {
				w[j] = r.Float64() * 10
			}
			clones[i] = w
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := simulateSiteQuadratic(ov, clones); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
