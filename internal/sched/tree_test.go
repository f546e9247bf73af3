package sched

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mdrs/internal/costmodel"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
)

func testScheduler(p int, eps, f float64) TreeScheduler {
	return TreeScheduler{
		Model:   costmodel.Default(),
		Overlap: resource.MustOverlap(eps),
		P:       p,
		F:       f,
	}
}

func leaf(name string, tuples int) *query.PlanNode {
	return &query.PlanNode{
		Relation: &query.Relation{Name: name, Tuples: tuples},
		Tuples:   tuples,
	}
}

func join(outer, inner *query.PlanNode) *query.PlanNode {
	t := outer.Tuples
	if inner.Tuples > t {
		t = inner.Tuples
	}
	return &query.PlanNode{Outer: outer, Inner: inner, Tuples: t}
}

func taskTree(t *testing.T, p *query.PlanNode) *plan.TaskTree {
	t.Helper()
	tt, err := plan.NewTaskTree(plan.MustExpand(p))
	if err != nil {
		t.Fatal(err)
	}
	return tt
}

func TestTreeSchedulerValidate(t *testing.T) {
	if err := testScheduler(10, 0.5, 0.7).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []TreeScheduler{
		{Model: costmodel.Default(), P: 0, F: 0.7},
		{Model: costmodel.Default(), P: 10, F: -1},
		{Model: costmodel.Default(), P: 10, F: math.NaN()},
		{Model: costmodel.Default(), P: 10, F: math.Inf(1)},
		{Model: costmodel.Model{}, P: 10, F: 0.7}, // zero params invalid
	}
	for i, ts := range bad {
		if err := ts.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestTreeScheduleSingleScan(t *testing.T) {
	ts := testScheduler(8, 0.5, 0.7)
	s, err := ts.Schedule(taskTree(t, leaf("R", 10000)))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Phases) != 1 {
		t.Fatalf("phases = %d, want 1", len(s.Phases))
	}
	if len(s.Phases[0].Placements) != 1 {
		t.Fatalf("placements = %d, want 1", len(s.Phases[0].Placements))
	}
	pl := s.Phases[0].Placements[0]
	if pl.Degree < 1 || pl.Degree > 8 {
		t.Fatalf("degree = %d", pl.Degree)
	}
	if s.Response <= 0 || s.Response != s.Phases[0].Response {
		t.Fatalf("response = %g, phase = %g", s.Response, s.Phases[0].Response)
	}
}

func TestTreeScheduleProbeRootedAtBuildHome(t *testing.T) {
	p := join(join(leaf("A", 5000), leaf("B", 20000)), leaf("C", 9000))
	tt := taskTree(t, p)
	ts := testScheduler(12, 0.5, 0.7)
	s, err := ts.Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	placed := map[*plan.Operator]*OpPlacement{}
	for _, ph := range s.Phases {
		for _, pl := range ph.Placements {
			placed[pl.Op] = pl
		}
	}
	checked := 0
	for _, ph := range s.Phases {
		for _, pl := range ph.Placements {
			if pl.Op.BuildOp == nil {
				continue
			}
			checked++
			buildPl := placed[pl.Op.BuildOp]
			if buildPl == nil {
				t.Fatalf("build of %s not scheduled", pl.Op.Name)
			}
			if !pl.Rooted {
				t.Errorf("probe %s not marked rooted", pl.Op.Name)
			}
			if !reflect.DeepEqual(pl.Sites, buildPl.Sites) {
				t.Errorf("probe %s sites %v != build sites %v",
					pl.Op.Name, pl.Sites, buildPl.Sites)
			}
			if pl.Degree != buildPl.Degree {
				t.Errorf("probe %s degree %d != build degree %d",
					pl.Op.Name, pl.Degree, buildPl.Degree)
			}
		}
	}
	if checked != 2 {
		t.Fatalf("checked %d probes, want 2", checked)
	}
}

func TestTreeScheduleResponseIsSumOfPhases(t *testing.T) {
	p := query.MustRandom(rand.New(rand.NewSource(17)), query.DefaultGenConfig(10))
	s, err := testScheduler(20, 0.3, 0.7).Schedule(taskTree(t, p))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, ph := range s.Phases {
		if ph.Response < 0 {
			t.Fatalf("negative phase response %g", ph.Response)
		}
		sum += ph.Response
	}
	if math.Abs(sum-s.Response) > 1e-9 {
		t.Fatalf("response %g != phase sum %g", s.Response, sum)
	}
}

func TestTreeSchedulePhaseCountIsHeightPlusOne(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		p := query.MustRandom(r, query.DefaultGenConfig(8+trial))
		tt := taskTree(t, p)
		s, err := testScheduler(16, 0.5, 0.7).Schedule(tt)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Phases) != tt.Height+1 {
			t.Fatalf("phases = %d, height+1 = %d", len(s.Phases), tt.Height+1)
		}
	}
}

func TestTreeScheduleDegreesRespectCaps(t *testing.T) {
	m := costmodel.Default()
	o := resource.MustOverlap(0.5)
	f := 0.5
	p := query.MustRandom(rand.New(rand.NewSource(8)), query.DefaultGenConfig(12))
	tt := taskTree(t, p)
	s, err := TreeScheduler{Model: m, Overlap: o, P: 10, F: f}.Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range s.Phases {
		for _, pl := range ph.Placements {
			if pl.Degree < 1 || pl.Degree > 10 {
				t.Fatalf("%s degree %d outside [1, P]", pl.Op.Name, pl.Degree)
			}
			if pl.Rooted {
				continue // degree inherited from the build's home
			}
			cost := m.Cost(pl.Op.Spec)
			if pl.Degree > m.NMax(cost, f) {
				t.Fatalf("%s degree %d > N_max %d", pl.Op.Name, pl.Degree, m.NMax(cost, f))
			}
		}
	}
}

func TestTreeScheduleHomesRootScans(t *testing.T) {
	p := leaf("R", 50000)
	ot := plan.MustExpand(p)
	tt := plan.MustNewTaskTree(ot)
	ts := testScheduler(6, 0.5, 0.9)
	ts.Homes = map[int][]int{ot.Root.ID: {3, 1}}
	s, err := ts.Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	pl := s.Phases[0].Placements[0]
	if !pl.Rooted || !reflect.DeepEqual(pl.Sites, []int{3, 1}) {
		t.Fatalf("rooted scan placement: rooted=%v sites=%v", pl.Rooted, pl.Sites)
	}
	if pl.Degree != 2 {
		t.Fatalf("rooted degree = %d, want 2", pl.Degree)
	}
}

// PhaseBound refuses what Schedule refuses, with an error: a bad
// configuration, a malformed tree, a home wider than the system, a home
// site outside it and two clones homed at one site.
// EA2 defines T^seq only for ε in [0, 1]. Outside it (NaN and ±Inf
// included) every operator used to get degree 1 and a schedule that
// Verify accepted; Validate, Schedule and PhaseBound now refuse it.
func TestEpsilonOutsideUnitRejected(t *testing.T) {
	p, err := query.RandomShaped(rand.New(rand.NewSource(1)), query.DefaultGenConfig(8), query.RandomBushy)
	if err != nil {
		t.Fatal(err)
	}
	tt := taskTree(t, p)
	for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 2, math.Nextafter(1, 2)} {
		ts := testScheduler(16, 0.5, 0.7)
		ts.Overlap.Epsilon = eps
		if err := ts.Validate(); err == nil {
			t.Errorf("ε = %g: Validate accepted", eps)
		}
		if s, err := ts.Schedule(tt); err == nil {
			t.Errorf("ε = %g: Schedule accepted (response %g)", eps, s.Response)
		}
		if b, err := ts.PhaseBound(tt); err == nil {
			t.Errorf("ε = %g: PhaseBound accepted (bound %g)", eps, b)
		}
	}
}

// Params Validate accepts can still cost infinite work: a MIPS rate of
// 5e-324 makes every CPU term +Inf. Schedule refuses the work vectors
// and PhaseBound the T^par, where the degree derivation once panicked
// (N_max of NaN).
func TestInfiniteWorkRejected(t *testing.T) {
	tt := randomTree(3, 4)
	for _, f := range []float64{0, 0.7} {
		ts := testScheduler(16, 0.5, f)
		ts.Model.Params.MIPS = 5e-324
		if s, err := ts.Schedule(tt); err == nil {
			t.Errorf("f = %g: Schedule accepted (response %g)", f, s.Response)
		}
		if b, err := ts.PhaseBound(tt); err == nil {
			t.Errorf("f = %g: PhaseBound accepted (bound %g)", f, b)
		}
	}
}

func TestPhaseBoundRejectsBadInput(t *testing.T) {
	ot := plan.MustExpand(leaf("R", 50000))
	tt := plan.MustNewTaskTree(ot)
	homed := func(home ...int) TreeScheduler {
		ts := testScheduler(3, 0.5, 0.9)
		ts.Homes = map[int][]int{ot.Root.ID: home}
		return ts
	}
	for name, ts := range map[string]TreeScheduler{
		"P = 0":          testScheduler(0, 0.5, 0.9),
		"f = NaN":        testScheduler(4, 0.5, math.NaN()),
		"wide home":      homed(0, 1, 2, 0),
		"site outside":   homed(0, 3),
		"negative site":  homed(-1),
		"duplicate site": homed(1, 1),
	} {
		if _, err := ts.PhaseBound(tt); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := ts.Schedule(tt); err == nil {
			t.Errorf("%s: Schedule accepted what PhaseBound must refuse", name)
		}
	}
	if _, err := testScheduler(4, 0.5, 0.9).PhaseBound(&plan.TaskTree{}); err == nil {
		t.Error("task tree without a root accepted")
	}
}

// A scan of negative cardinality costs negative work. PhaseBound never
// builds a clone vector, so only the task tree's validation can refuse
// such a tree for it as for Schedule.
func TestNegativeCardinalityRejected(t *testing.T) {
	tt := randomTree(1, 4)
	for _, tk := range tt.Tasks {
		for _, op := range tk.Ops {
			if op.Kind == costmodel.Scan {
				op.Spec.InTuples, op.Spec.ResultTuples = -5000, -5000
			}
		}
	}
	ts := testScheduler(16, 0.5, 0.7)
	if b, err := ts.PhaseBound(tt); err == nil || !strings.Contains(err.Error(), "negative cardinality") {
		t.Errorf("PhaseBound = %g, %v; want a negative-cardinality error", b, err)
	}
	if _, err := ts.Schedule(tt); err == nil || !strings.Contains(err.Error(), "negative cardinality") {
		t.Errorf("Schedule error %v; want a negative-cardinality error", err)
	}
}

func TestTreeScheduleInvalidHomeRejected(t *testing.T) {
	p := leaf("R", 50000)
	ot := plan.MustExpand(p)
	tt := plan.MustNewTaskTree(ot)
	ts := testScheduler(4, 0.5, 0.9)
	ts.Homes = map[int][]int{ot.Root.ID: {99}}
	if _, err := ts.Schedule(tt); err == nil {
		t.Fatal("out-of-range home accepted")
	}
}

func TestTreeScheduleMoreSitesNeverMuchWorse(t *testing.T) {
	// Monotone improvement is not guaranteed for list scheduling, but on
	// an average workload a 4x larger system should never be slower.
	r := rand.New(rand.NewSource(23))
	p := query.MustRandom(r, query.DefaultGenConfig(20))
	tt := taskTree(t, p)
	small, err := testScheduler(10, 0.5, 0.7).Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	big, err := testScheduler(40, 0.5, 0.7).Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	if big.Response > small.Response*1.001 {
		t.Fatalf("P=40 response %g worse than P=10 response %g",
			big.Response, small.Response)
	}
}

func TestTreeScheduleLargerFNotSlower(t *testing.T) {
	// Averaged over several plans, growing f (more allowed parallelism)
	// must not hurt: the degree caps only widen.
	r := rand.New(rand.NewSource(31))
	sum03, sum09 := 0.0, 0.0
	for trial := 0; trial < 5; trial++ {
		p := query.MustRandom(r, query.DefaultGenConfig(15))
		tt := taskTree(t, p)
		s03, err := testScheduler(30, 0.3, 0.3).Schedule(tt)
		if err != nil {
			t.Fatal(err)
		}
		s09, err := testScheduler(30, 0.3, 0.9).Schedule(tt)
		if err != nil {
			t.Fatal(err)
		}
		sum03 += s03.Response
		sum09 += s09.Response
	}
	if sum09 > sum03*1.01 {
		t.Fatalf("f=0.9 total %g worse than f=0.3 total %g", sum09, sum03)
	}
}

func TestTreeScheduleEveryOperatorPlacedOnce(t *testing.T) {
	p := query.MustRandom(rand.New(rand.NewSource(41)), query.DefaultGenConfig(14))
	ot := plan.MustExpand(p)
	tt := plan.MustNewTaskTree(ot)
	s, err := testScheduler(25, 0.5, 0.7).Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	placed := map[int]int{}
	for _, ph := range s.Phases {
		for _, pl := range ph.Placements {
			placed[pl.Op.ID]++
		}
	}
	if len(placed) != len(ot.Ops) {
		t.Fatalf("placed %d operators, plan has %d", len(placed), len(ot.Ops))
	}
	for id, n := range placed {
		if n != 1 {
			t.Fatalf("operator %d placed %d times", id, n)
		}
	}
}

func TestScheduleResponseScalesDownWithSites(t *testing.T) {
	// Sanity on magnitudes: a 40-join query on 80 sites should be much
	// faster than on a single site... with P=1 every operator is serial.
	p := query.MustRandom(rand.New(rand.NewSource(55)), query.DefaultGenConfig(40))
	tt := taskTree(t, p)
	s1, err := testScheduler(1, 0.5, 0.7).Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	s80, err := testScheduler(80, 0.5, 0.7).Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	if s80.Response >= s1.Response/4 {
		t.Fatalf("no meaningful speedup: P=1 %g, P=80 %g", s1.Response, s80.Response)
	}
}

func BenchmarkTreeSchedule40Joins80Sites(b *testing.B) {
	p := query.MustRandom(rand.New(rand.NewSource(1)), query.DefaultGenConfig(40))
	tt := plan.MustNewTaskTree(plan.MustExpand(p))
	ts := testScheduler(80, 0.5, 0.7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ts.Schedule(tt); err != nil {
			b.Fatal(err)
		}
	}
}
