package baseline

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mdrs/internal/costmodel"
	"mdrs/internal/opt"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
)

func testBaseline(p int, eps float64) Synchronous {
	return Synchronous{
		Model:   costmodel.Default(),
		Overlap: resource.MustOverlap(eps),
		P:       p,
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
	return plan.MustNewTaskTree(plan.MustExpand(p))
}

func TestValidate(t *testing.T) {
	if err := testBaseline(10, 0.5).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Synchronous{Model: costmodel.Default(), P: 0}).Validate(); err == nil {
		t.Error("P = 0 accepted")
	}
	if err := (Synchronous{P: 4}).Validate(); err == nil {
		t.Error("zero model accepted")
	}
}

func TestScheduleSingleScan(t *testing.T) {
	b := testBaseline(8, 0.5)
	res, err := b.Schedule(taskTree(t, leaf("R", 20000)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Placements) != 1 {
		t.Fatalf("placements = %d, want 1", len(res.Placements))
	}
	pl := res.Placements[0]
	if pl.Degree < 1 || pl.Degree > 8 {
		t.Fatalf("degree = %d", pl.Degree)
	}
	if res.Response <= 0 {
		t.Fatalf("response = %g", res.Response)
	}
}

func TestNoStageSharingWithinTask(t *testing.T) {
	// With a wide pool, the stages of one task occupy disjoint sites —
	// the defining no-sharing behavior of the 1-D baseline. Check the
	// root pipeline of a two-join plan on a large system: its floating
	// scan must not overlap its rooted probes' sites, and the two builds
	// (sibling subtrees) must occupy disjoint pools.
	p := join(join(leaf("A", 30000), leaf("B", 50000)), leaf("C", 40000))
	tt := taskTree(t, p)
	b := testBaseline(60, 0.5)
	res, err := b.Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	// Builds belong to different (sibling-ish) tasks: disjoint pools.
	var buildSites [][]int
	for _, pl := range res.Placements {
		if pl.Op.Kind == costmodel.Build {
			buildSites = append(buildSites, pl.Sites)
		}
	}
	if len(buildSites) != 2 {
		t.Fatalf("builds = %d", len(buildSites))
	}
	seen := map[int]bool{}
	for _, sites := range buildSites {
		for _, s := range sites {
			if seen[s] {
				t.Fatalf("sibling builds share site %d", s)
			}
			seen[s] = true
		}
	}
	// Within the root task: scan(A) and the probes occupy their own
	// sites; stages of one task never deliberately overlap.
	rootOps := map[string][]int{}
	for _, pl := range res.Placements {
		switch pl.Op.Name {
		case "scan(A)", "probe(J0)", "probe(J1)":
			rootOps[pl.Op.Name] = pl.Sites
		}
	}
	used := map[int]string{}
	for name, sites := range rootOps {
		for _, s := range sites {
			if prev, ok := used[s]; ok {
				t.Fatalf("root task stages %s and %s share site %d", prev, name, s)
			}
			used[s] = name
		}
	}
}

func TestProbesInheritBuildHomes(t *testing.T) {
	p := join(join(leaf("A", 10000), leaf("B", 20000)), leaf("C", 15000))
	tt := taskTree(t, p)
	b := testBaseline(24, 0.5)
	res, err := b.Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	probes := 0
	for _, pl := range res.Placements {
		if pl.Op.BuildOp == nil {
			continue
		}
		probes++
		buildPl := res.Placement(pl.Op.BuildOp)
		if buildPl == nil {
			t.Fatalf("build of %s missing", pl.Op.Name)
		}
		if !reflect.DeepEqual(pl.Sites, buildPl.Sites) {
			t.Fatalf("%s at %v, build at %v", pl.Op.Name, pl.Sites, buildPl.Sites)
		}
		if !pl.Rooted {
			t.Fatalf("%s not marked rooted", pl.Op.Name)
		}
	}
	if probes != 2 {
		t.Fatalf("saw %d probes, want 2", probes)
	}
}

func TestEveryOperatorPlaced(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		pl := query.MustRandom(r, query.DefaultGenConfig(5+r.Intn(30)))
		ot := plan.MustExpand(pl)
		tt := plan.MustNewTaskTree(ot)
		p := 4 + r.Intn(60)
		res, err := testBaseline(p, 0.5).Schedule(tt)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Placements) != len(ot.Ops) {
			t.Fatalf("placed %d of %d operators", len(res.Placements), len(ot.Ops))
		}
		for _, opl := range res.Placements {
			if len(opl.Sites) != opl.Degree || opl.Degree < 1 {
				t.Fatalf("%s: degree %d, sites %v", opl.Op.Name, opl.Degree, opl.Sites)
			}
			for _, site := range opl.Sites {
				if site < 0 || site >= p {
					t.Fatalf("%s placed at site %d (P=%d)", opl.Op.Name, site, p)
				}
			}
		}
	}
}

func TestSerializationWhenChildrenExceedSites(t *testing.T) {
	// A 20-join random plan on 3 sites: tasks can have more children
	// than sites; the baseline must serialize, not fail.
	r := rand.New(rand.NewSource(11))
	pl := query.MustRandom(r, query.DefaultGenConfig(20))
	res, err := testBaseline(3, 0.5).Schedule(plan.MustNewTaskTree(plan.MustExpand(pl)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Response <= 0 {
		t.Fatalf("response = %g", res.Response)
	}
}

func TestSynchronousSlowerThanTreeScheduleOnAverage(t *testing.T) {
	// The paper's headline claim: multi-dimensional scheduling with
	// resource sharing beats the one-dimensional baseline on average.
	r := rand.New(rand.NewSource(19))
	m := costmodel.Default()
	ov := resource.MustOverlap(0.3)
	sumSync, sumTree := 0.0, 0.0
	for trial := 0; trial < 10; trial++ {
		pl := query.MustRandom(r, query.DefaultGenConfig(20))
		tt := plan.MustNewTaskTree(plan.MustExpand(pl))
		sSync, err := Synchronous{Model: m, Overlap: ov, P: 20}.Schedule(tt)
		if err != nil {
			t.Fatal(err)
		}
		sTree, err := sched.TreeScheduler{Model: m, Overlap: ov, P: 20, F: 0.7}.Schedule(tt)
		if err != nil {
			t.Fatal(err)
		}
		sumSync += sSync.Response
		sumTree += sTree.Response
	}
	if sumTree >= sumSync {
		t.Fatalf("TreeSchedule total %g not better than Synchronous total %g",
			sumTree, sumSync)
	}
}

func TestResponseAtLeastEveryTaskTime(t *testing.T) {
	// The completion recursion can never report less than the most
	// expensive single operator's isolated time.
	r := rand.New(rand.NewSource(23))
	pl := query.MustRandom(r, query.DefaultGenConfig(12))
	res, err := testBaseline(16, 0.5).Schedule(plan.MustNewTaskTree(plan.MustExpand(pl)))
	if err != nil {
		t.Fatal(err)
	}
	for _, opl := range res.Placements {
		if res.Response < opl.TPar-1e-9 {
			t.Fatalf("response %g below %s's T^par %g", res.Response, opl.Op.Name, opl.TPar)
		}
	}
}

func TestFragmentationHurtsDeepPlansOnSmallSystems(t *testing.T) {
	// The recursive partitioning fragments small systems on large
	// queries: per-join response (response/joins) must grow with query
	// size at fixed P — the degradation TreeSchedule avoids.
	r := rand.New(rand.NewSource(29))
	avg := func(joins int) float64 {
		sum := 0.0
		for trial := 0; trial < 6; trial++ {
			pl := query.MustRandom(r, query.DefaultGenConfig(joins))
			res, err := testBaseline(20, 0.5).Schedule(plan.MustNewTaskTree(plan.MustExpand(pl)))
			if err != nil {
				t.Fatal(err)
			}
			sum += res.Response
		}
		return sum / 6
	}
	small, big := avg(10), avg(50)
	if big <= small*2 {
		t.Fatalf("no fragmentation visible: 10J avg %g, 50J avg %g", small, big)
	}
}

func TestAllocateProportionalShares(t *testing.T) {
	pools := allocateProportional(10, []float64{6, 3, 1})
	sizes := []int{len(pools[0]), len(pools[1]), len(pools[2])}
	if sizes[0] != 6 || sizes[1] != 3 || sizes[2] != 1 {
		t.Fatalf("sizes = %v, want [6 3 1]", sizes)
	}
	var all []int
	for _, p := range pools {
		all = append(all, p...)
	}
	sort.Ints(all)
	for i, v := range all {
		if v != i {
			t.Fatalf("indices = %v", all)
		}
	}
}

func TestAllocateProportionalFloorOfOne(t *testing.T) {
	pools := allocateProportional(5, []float64{1000, 1, 1, 1})
	for i, p := range pools {
		if len(p) < 1 {
			t.Fatalf("task %d got no sites: %v", i, pools)
		}
	}
	total := 0
	for _, p := range pools {
		total += len(p)
	}
	if total != 5 {
		t.Fatalf("allocated %d of 5 sites", total)
	}
	if len(pools[0]) <= len(pools[1]) {
		t.Fatalf("heavy task got %d sites, light got %d", len(pools[0]), len(pools[1]))
	}
}

func TestAllocateProportionalSerialization(t *testing.T) {
	pools := allocateProportional(2, []float64{5, 4, 3, 2, 1})
	for i, p := range pools {
		if len(p) != 1 || p[0] < 0 || p[0] >= 2 {
			t.Fatalf("task %d pool = %v", i, p)
		}
	}
}

func TestAllocateProportionalEdgeCases(t *testing.T) {
	if got := allocateProportional(0, []float64{1}); len(got[0]) != 0 {
		t.Fatalf("count=0: %v", got)
	}
	if got := allocateProportional(4, nil); len(got) != 0 {
		t.Fatalf("no tasks: %v", got)
	}
	pools := allocateProportional(4, []float64{0, 0})
	if len(pools[0])+len(pools[1]) != 4 {
		t.Fatalf("zero-weight allocation: %v", pools)
	}
}

func TestDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	pl := query.MustRandom(r, query.DefaultGenConfig(15))
	tt := plan.MustNewTaskTree(plan.MustExpand(pl))
	b := testBaseline(20, 0.4)
	s1, err := b.Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := b.Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Response != s2.Response {
		t.Fatalf("non-deterministic: %g vs %g", s1.Response, s2.Response)
	}
}

func BenchmarkSynchronous40Joins80Sites(b *testing.B) {
	pl := query.MustRandom(rand.New(rand.NewSource(1)), query.DefaultGenConfig(40))
	tt := plan.MustNewTaskTree(plan.MustExpand(pl))
	bl := testBaseline(80, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bl.Schedule(tt); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEndToEndPipelineSynchronous sets the root package's end-to-end
// plan (seed 42, 8 joins, P = 16) against the SYNCHRONOUS baseline:
// both schedules respect OPTBOUND and TreeSchedule wins.
func TestEndToEndPipelineSynchronous(t *testing.T) {
	pl := query.MustRandom(rand.New(rand.NewSource(42)), query.GenConfig{Joins: 8, MinTuples: 2000, MaxTuples: 20000})
	tt := taskTree(t, pl)
	m, ov := costmodel.Default(), resource.MustOverlap(0.5)
	tree, err := sched.TreeScheduler{Model: m, Overlap: ov, P: 16, F: 0.7}.Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	sync, err := testBaseline(16, 0.5).Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := opt.Bound(tt, m, ov, 16, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if sync.Response < bound-1e-9 {
		t.Fatalf("Synchronous %g below OPTBOUND %g", sync.Response, bound)
	}
	if tree.Response >= sync.Response {
		t.Fatalf("TreeSchedule %g not better than Synchronous %g", tree.Response, sync.Response)
	}
}

func TestTreeScheduleBeatsSynchronousAcrossSweeps(t *testing.T) {
	// A compact end-to-end sanity sweep mirroring the paper's headline
	// result at f = 0.7.
	r := rand.New(rand.NewSource(3))
	for _, sites := range []int{10, 40, 120} {
		for _, eps := range []float64{0.1, 0.5} {
			var sumT, sumS float64
			for trial := 0; trial < 3; trial++ {
				tt := taskTree(t, query.MustRandom(r, query.DefaultGenConfig(15)))
				st, err := sched.TreeScheduler{
					Model: costmodel.Default(), Overlap: resource.MustOverlap(eps), P: sites, F: 0.7,
				}.Schedule(tt)
				if err != nil {
					t.Fatal(err)
				}
				ss, err := testBaseline(sites, eps).Schedule(tt)
				if err != nil {
					t.Fatal(err)
				}
				sumT += st.Response
				sumS += ss.Response
			}
			if sumT >= sumS {
				t.Fatalf("P=%d ε=%g: TreeSchedule total %g not better than Synchronous %g",
					sites, eps, sumT, sumS)
			}
		}
	}
}
