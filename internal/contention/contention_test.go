package contention

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mdrs/internal/costmodel"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
	"mdrs/internal/vector"
)

func TestPenaltyValidate(t *testing.T) {
	if err := Penalty(nil).Validate(3); err != nil {
		t.Fatal(err)
	}
	if err := (Penalty{0, 0.1, 0}).Validate(3); err != nil {
		t.Fatal(err)
	}
	if err := (Penalty{0.1}).Validate(3); err == nil {
		t.Error("wrong dimension accepted")
	}
	if err := (Penalty{0, -0.1, 0}).Validate(3); err == nil {
		t.Error("negative coefficient accepted")
	}
}

func TestDiskOnly(t *testing.T) {
	g := DiskOnly(3, 0.2)
	if g[resource.CPU] != 0 || g[resource.Net] != 0 || g[resource.Disk] != 0.2 {
		t.Fatalf("DiskOnly = %v", g)
	}
}

func TestTSiteZeroPenaltyMatchesEquation2(t *testing.T) {
	ov := resource.MustOverlap(0.3)
	clones := []vector.Vector{vector.Of(10, 15), vector.Of(10, 5)}
	want := ov.TSite(clones)
	if got := TSite(ov, nil, clones); math.Abs(got-want) > 1e-12 {
		t.Fatalf("TSite(γ=0) = %g, Equation 2 = %g", got, want)
	}
	if got := TSite(ov, Penalty{0, 0}, clones); math.Abs(got-want) > 1e-12 {
		t.Fatalf("explicit zero penalty differs: %g vs %g", got, want)
	}
}

func TestTSitePenaltyInflatesSharedResource(t *testing.T) {
	ov := resource.MustOverlap(1)
	// Two clones sharing the disk (dimension 1): load 10 each -> 20.
	clones := []vector.Vector{vector.Of(0, 10), vector.Of(0, 10)}
	g := Penalty{0, 0.5}
	// Penalized disk load: 20 · (1 + 0.5·(2−1)) = 30.
	if got := TSite(ov, g, clones); math.Abs(got-30) > 1e-12 {
		t.Fatalf("penalized TSite = %g, want 30", got)
	}
	// A single user pays no penalty.
	if got := TSite(ov, g, clones[:1]); math.Abs(got-10) > 1e-12 {
		t.Fatalf("single-user TSite = %g, want 10", got)
	}
	// Clones not touching the disk are not counted as users.
	mixed := []vector.Vector{vector.Of(5, 10), vector.Of(5, 0)}
	if got := TSite(ov, g, mixed); math.Abs(got-10) > 1e-12 {
		t.Fatalf("mixed TSite = %g, want 10 (one disk user)", got)
	}
}

func TestTSiteEmpty(t *testing.T) {
	if got := TSite(resource.MustOverlap(0.5), nil, nil); got != 0 {
		t.Fatalf("empty TSite = %g", got)
	}
}

// Property: the penalized site time is monotone in γ and never below
// the unpenalized Equation 2 value.
func TestQuickTSiteMonotoneInPenalty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ov := resource.MustOverlap(r.Float64())
		d := 1 + r.Intn(4)
		n := 1 + r.Intn(6)
		clones := make([]vector.Vector, n)
		for i := range clones {
			w := vector.New(d)
			for j := range w {
				w[j] = r.Float64() * 10
			}
			clones[i] = w
		}
		g1, g2 := make(Penalty, d), make(Penalty, d)
		for i := range g1 {
			g1[i] = r.Float64() * 0.3
			g2[i] = g1[i] + r.Float64()*0.3
		}
		base := TSite(ov, nil, clones)
		t1, t2 := TSite(ov, g1, clones), TSite(ov, g2, clones)
		return t1 >= base-1e-9 && t2 >= t1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func treeSchedule(t *testing.T, joins, p int) *sched.Schedule {
	t.Helper()
	r := rand.New(rand.NewSource(int64(joins)))
	pl := query.MustRandom(r, query.DefaultGenConfig(joins))
	tt := plan.MustNewTaskTree(plan.MustExpand(pl))
	s, err := sched.TreeScheduler{
		Model:   costmodel.Default(),
		Overlap: resource.MustOverlap(0.5),
		P:       p, F: 0.7,
	}.Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEvalScheduleZeroPenaltyMatchesResponse(t *testing.T) {
	ov := resource.MustOverlap(0.5)
	s := treeSchedule(t, 10, 12)
	got, err := EvalSchedule(ov, nil, s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-s.Response) > 1e-9 {
		t.Fatalf("γ=0 evaluation %g != schedule response %g", got, s.Response)
	}
}

func TestEvalScheduleDiskPenaltyCosts(t *testing.T) {
	ov := resource.MustOverlap(0.5)
	s := treeSchedule(t, 15, 12)
	base, err := EvalSchedule(ov, nil, s)
	if err != nil {
		t.Fatal(err)
	}
	pen, err := EvalSchedule(ov, DiskOnly(resource.Dims, 1.0), s)
	if err != nil {
		t.Fatal(err)
	}
	if pen <= base {
		t.Fatalf("disk penalty did not cost: %g vs %g", pen, base)
	}
}

func TestEvalScheduleRejectsBadPenalty(t *testing.T) {
	ov := resource.MustOverlap(0.5)
	s := treeSchedule(t, 5, 6)
	if _, err := EvalSchedule(ov, Penalty{1}, s); err == nil {
		t.Fatal("wrong-dimension penalty accepted")
	}
}

func randomOps(r *rand.Rand, m, p, d int) []*sched.Op {
	ops := make([]*sched.Op, m)
	for i := range ops {
		n := 1 + r.Intn(p)
		clones := make([]vector.Vector, n)
		for k := range clones {
			w := vector.New(d)
			for j := range w {
				// Skewed toward disk-heavy vectors so sharing matters.
				w[j] = r.Float64() * 5
			}
			w[d-1] += r.Float64() * 10
			clones[k] = w
		}
		ops[i] = &sched.Op{ID: i, Clones: clones}
	}
	return ops
}

func TestPenaltyAwareSchedulingNeverWorseOnAverage(t *testing.T) {
	// The penalty-aware greedy should beat (or match) evaluating the
	// penalty-blind schedule under the penalized model, on average.
	r := rand.New(rand.NewSource(17))
	ov := resource.MustOverlap(0.5)
	d := 3
	g := DiskOnly(d, 0.3)
	var sumAware, sumBlind float64
	for trial := 0; trial < 20; trial++ {
		p := 3 + r.Intn(8)
		ops := randomOps(r, 2+r.Intn(8), p, d)
		blind, err := sched.OperatorSchedule(p, d, ov, ops)
		if err != nil {
			t.Fatal(err)
		}
		// Evaluate the blind schedule under the penalized model.
		siteClones := make([][]vector.Vector, p)
		for _, op := range ops {
			for k, site := range blind.Sites[op.ID] {
				siteClones[site] = append(siteClones[site], op.Clones[k])
			}
		}
		blindPen := 0.0
		for _, clones := range siteClones {
			if tt := TSite(ov, g, clones); tt > blindPen {
				blindPen = tt
			}
		}
		aware, err := OperatorSchedule(p, d, ov, g, ops)
		if err != nil {
			t.Fatal(err)
		}
		sumAware += aware.Response
		sumBlind += blindPen
	}
	if sumAware > sumBlind*1.001 {
		t.Fatalf("penalty-aware total %g worse than penalty-blind total %g",
			sumAware, sumBlind)
	}
}

func TestPenaltyAwareRespectsConstraints(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	ov := resource.MustOverlap(0.4)
	g := DiskOnly(3, 0.2)
	ops := randomOps(r, 6, 5, 3)
	// Root one operator.
	ops[0].Home = []int{2}
	ops[0].Clones = ops[0].Clones[:1]
	res, err := OperatorSchedule(5, 3, ov, g, ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sites[0][0] != 2 {
		t.Fatalf("rooted op moved to %d", res.Sites[0][0])
	}
	for _, op := range ops {
		seen := map[int]bool{}
		for _, s := range res.Sites[op.ID] {
			if seen[s] {
				t.Fatalf("op %d has two clones at site %d", op.ID, s)
			}
			seen[s] = true
		}
	}
}

func TestPenaltyAwareInvalidArgs(t *testing.T) {
	ov := resource.MustOverlap(0.5)
	ops := []*sched.Op{{ID: 0, Clones: []vector.Vector{vector.Of(1, 1, 1)}}}
	if _, err := OperatorSchedule(2, 3, ov, Penalty{1}, ops); err == nil {
		t.Error("wrong-dimension penalty accepted")
	}
	if _, err := OperatorSchedule(0, 3, ov, nil, ops); err == nil {
		t.Error("P = 0 accepted")
	}
}

func BenchmarkPenaltyAwareSchedule(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	ov := resource.MustOverlap(0.5)
	g := DiskOnly(3, 0.2)
	ops := randomOps(r, 30, 16, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OperatorSchedule(16, 3, ov, g, ops); err != nil {
			b.Fatal(err)
		}
	}
}
