package plan

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"mdrs/internal/costmodel"
	"mdrs/internal/query"
)

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

// twoJoinPlan builds (A ⋈ B) ⋈ C with A outer of J0, C outer of J1:
// J1( outer=C ... wait — constructed as join(join(A,B), C): J0 = A⋈B
// (A outer, B inner), J1 = J0 ⋈ C (J0 outer, C inner).
func twoJoinPlan() *query.PlanNode {
	return join(join(leaf("A", 1000), leaf("B", 3000)), leaf("C", 2000))
}

func TestExpandCounts(t *testing.T) {
	ot := MustExpand(twoJoinPlan())
	if err := ot.Validate(); err != nil {
		t.Fatal(err)
	}
	// 3J+1 operators: 3 scans, 2 builds, 2 probes.
	if got := len(ot.Ops); got != 7 {
		t.Fatalf("operator count = %d, want 7", got)
	}
	kinds := map[costmodel.OpKind]int{}
	for _, op := range ot.Ops {
		kinds[op.Kind]++
	}
	if kinds[costmodel.Scan] != 3 || kinds[costmodel.Build] != 2 || kinds[costmodel.Probe] != 2 {
		t.Fatalf("kind counts = %v", kinds)
	}
	if ot.Root.Kind != costmodel.Probe {
		t.Fatalf("root kind = %v, want probe", ot.Root.Kind)
	}
}

func TestExpandCardinalities(t *testing.T) {
	ot := MustExpand(twoJoinPlan())
	byName := map[string]*Operator{}
	for _, op := range ot.Ops {
		byName[op.Name] = op
	}
	// J0 = A ⋈ B: build over B (3000), probe over A (1000) producing 3000.
	if b := byName["build(J0)"]; b.Spec.InTuples != 3000 {
		t.Errorf("build(J0) input = %d, want 3000", b.Spec.InTuples)
	}
	p0 := byName["probe(J0)"]
	if p0.Spec.InTuples != 1000 || p0.Spec.ResultTuples != 3000 {
		t.Errorf("probe(J0) = %d -> %d, want 1000 -> 3000",
			p0.Spec.InTuples, p0.Spec.ResultTuples)
	}
	// J1 = J0 ⋈ C: build over C (2000), probe over J0's output (3000)
	// producing max(3000, 2000) = 3000.
	if b := byName["build(J1)"]; b.Spec.InTuples != 2000 {
		t.Errorf("build(J1) input = %d, want 2000", b.Spec.InTuples)
	}
	p1 := byName["probe(J1)"]
	if p1.Spec.InTuples != 3000 || p1.Spec.ResultTuples != 3000 {
		t.Errorf("probe(J1) = %d -> %d, want 3000 -> 3000",
			p1.Spec.InTuples, p1.Spec.ResultTuples)
	}
}

func TestExpandEdgeKinds(t *testing.T) {
	ot := MustExpand(twoJoinPlan())
	for _, op := range ot.Ops {
		switch op.Kind {
		case costmodel.Scan:
			if op.ConsumerEdge != Pipeline {
				t.Errorf("%s consumer edge = %v, want pipeline", op.Name, op.ConsumerEdge)
			}
			if !op.Spec.NetOut || op.Spec.NetIn {
				t.Errorf("%s net flags = in:%v out:%v", op.Name, op.Spec.NetIn, op.Spec.NetOut)
			}
		case costmodel.Build:
			if op.ConsumerEdge != Blocking {
				t.Errorf("%s consumer edge = %v, want blocking", op.Name, op.ConsumerEdge)
			}
			if !op.Spec.NetIn || op.Spec.NetOut {
				t.Errorf("%s net flags = in:%v out:%v", op.Name, op.Spec.NetIn, op.Spec.NetOut)
			}
		case costmodel.Probe:
			if op.BuildOp == nil || op.BuildOp.Kind != costmodel.Build {
				t.Errorf("%s missing build pairing", op.Name)
			}
			if !op.Spec.NetIn || !op.Spec.NetOut {
				t.Errorf("%s net flags = in:%v out:%v", op.Name, op.Spec.NetIn, op.Spec.NetOut)
			}
		}
	}
}

func TestExpandRejectsInvalidPlan(t *testing.T) {
	if _, err := Expand(leaf("R", -1)); err == nil {
		t.Fatal("invalid plan expanded")
	}
}

func TestExpandSingleRelation(t *testing.T) {
	ot := MustExpand(leaf("R", 500))
	if err := ot.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ot.Ops) != 1 || ot.Root.Kind != costmodel.Scan {
		t.Fatalf("single-relation expansion: %d ops, root %v", len(ot.Ops), ot.Root.Kind)
	}
	tt := MustNewTaskTree(ot)
	if len(tt.Tasks) != 1 || tt.Height != 0 {
		t.Fatalf("tasks = %d, height = %d", len(tt.Tasks), tt.Height)
	}
}

func TestTaskGrouping(t *testing.T) {
	// Figure 1 intuition for (A ⋈ B) ⋈ C:
	//   T_a = {scan(B) build(J0)}          (inner pipeline of J0)
	//   T_b = {scan(C) build(J1)}          (inner pipeline of J1)
	//   T_c = {scan(A) probe(J0) probe(J1)} (outer pipeline to the root)
	ot := MustExpand(twoJoinPlan())
	tt := MustNewTaskTree(ot)
	if err := tt.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(tt.Tasks); got != 3 {
		t.Fatalf("task count = %d, want 3", got)
	}
	sizes := map[int]int{}
	for _, tk := range tt.Tasks {
		sizes[len(tk.Ops)]++
	}
	if sizes[2] != 2 || sizes[3] != 1 {
		t.Fatalf("task sizes = %v, want two 2-op tasks and one 3-op task", sizes)
	}
	// The root task holds both probes and scan(A).
	rootOps := map[string]bool{}
	for _, op := range tt.Root.Ops {
		rootOps[op.Name] = true
	}
	for _, want := range []string{"scan(A)", "probe(J0)", "probe(J1)"} {
		if !rootOps[want] {
			t.Errorf("root task missing %s: has %v", want, tt.Root.Name())
		}
	}
}

func TestTaskLevelsAndPhases(t *testing.T) {
	ot := MustExpand(twoJoinPlan())
	tt := MustNewTaskTree(ot)
	if tt.Height != 1 {
		t.Fatalf("height = %d, want 1", tt.Height)
	}
	phases := tt.Phases()
	if len(phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(phases))
	}
	// First phase: the two build pipelines; second: the root task.
	if len(phases[0]) != 2 || len(phases[1]) != 1 {
		t.Fatalf("phase sizes = %d/%d, want 2/1", len(phases[0]), len(phases[1]))
	}
	if phases[1][0] != tt.Root {
		t.Fatal("last phase is not the root task")
	}
}

// A right-deep chain of joins puts all builds in one phase... actually a
// right-deep tree (J_k inner = deeper join) chains builds through
// blocking edges: build(J1) feeds probe(J1) which pipelines into
// build(J0)... Verify the level structure on a concrete 3-join
// right-deep plan: ((A ⋈ (B ⋈ (C ⋈ D)))) with inner = deeper subtree.
func TestRightDeepLevels(t *testing.T) {
	d := leaf("D", 400)
	c := leaf("C", 300)
	b := leaf("B", 200)
	a := leaf("A", 100)
	p := join(a, join(b, join(c, d)))
	ot := MustExpand(p)
	tt := MustNewTaskTree(ot)
	if err := tt.Validate(); err != nil {
		t.Fatal(err)
	}
	// Tasks: {scan(D) build(J0)}, {scan(C) probe(J0) build(J1)},
	// {scan(B) probe(J1) build(J2)}, {scan(A) probe(J2)}.
	if len(tt.Tasks) != 4 {
		t.Fatalf("task count = %d, want 4", len(tt.Tasks))
	}
	if tt.Height != 3 {
		t.Fatalf("height = %d, want 3 (serialized right-deep chain)", tt.Height)
	}
	for _, phase := range tt.Phases() {
		if len(phase) != 1 {
			t.Fatalf("right-deep phase has %d tasks, want 1", len(phase))
		}
	}
}

// A left-deep chain pipelines all probes into one task: the task tree
// is flat (every build pipeline is a direct child of the root task) —
// maximal independent parallelism.
func TestLeftDeepLevels(t *testing.T) {
	p := leaf("R0", 100)
	for i := 1; i <= 5; i++ {
		p = join(p, leaf("x", 100+i)) // inner = fresh relation
	}
	ot := MustExpand(p)
	tt := MustNewTaskTree(ot)
	if tt.Height != 1 {
		t.Fatalf("height = %d, want 1 (flat left-deep task tree)", tt.Height)
	}
	phases := tt.Phases()
	if len(phases[0]) != 5 || len(phases[1]) != 1 {
		t.Fatalf("phase sizes = %d/%d, want 5/1", len(phases[0]), len(phases[1]))
	}
	if got := len(tt.Root.Ops); got != 6 { // scan(R0) + 5 probes
		t.Fatalf("root task size = %d, want 6", got)
	}
}

func TestBlockingEdgesCrossPhases(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		p := query.MustRandom(r, query.DefaultGenConfig(15))
		tt := MustNewTaskTree(MustExpand(p))
		phaseOf := map[*Task]int{}
		for i, phase := range tt.Phases() {
			for _, tk := range phase {
				phaseOf[tk] = i
			}
		}
		for _, tk := range tt.Tasks {
			if tk.Parent != nil && phaseOf[tk] >= phaseOf[tk.Parent] {
				t.Fatalf("child task phase %d >= parent phase %d",
					phaseOf[tk], phaseOf[tk.Parent])
			}
		}
	}
}

func TestProbeRootedAtBuildJoin(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	p := query.MustRandom(r, query.DefaultGenConfig(12))
	ot := MustExpand(p)
	for _, op := range ot.Ops {
		if op.Kind != costmodel.Probe {
			continue
		}
		if op.BuildOp.JoinID != op.JoinID {
			t.Fatalf("probe J%d paired with build J%d", op.JoinID, op.BuildOp.JoinID)
		}
		// The build's blocking consumer is exactly this probe.
		if op.BuildOp.Consumer != op {
			t.Fatalf("build(J%d) consumer mismatch", op.JoinID)
		}
	}
}

func TestPhasesByPolicies(t *testing.T) {
	// Plan with an unbalanced shape: a deep right chain plus one shallow
	// leaf at the root: join(A, join(B, join(C, D))).
	p := join(leaf("A", 100), join(leaf("B", 200), join(leaf("C", 300), leaf("D", 400))))
	tt := MustNewTaskTree(MustExpand(p))
	if tt.Height != 3 {
		t.Fatalf("height = %d", tt.Height)
	}
	min := tt.PhasesBy(MinShelf)
	early := tt.PhasesBy(EarliestShelf)
	if len(min) != len(early) || len(min) != 4 {
		t.Fatalf("phase counts: min %d, early %d", len(min), len(early))
	}
	// Both policies: root task alone in the final phase.
	if len(min[3]) != 1 || len(early[3]) != 1 {
		t.Fatalf("final phases: min %d, early %d tasks", len(min[3]), len(early[3]))
	}
	// Each task appears exactly once under either policy.
	for _, phases := range [][][]*Task{min, early} {
		total := 0
		for _, ph := range phases {
			total += len(ph)
		}
		if total != len(tt.Tasks) {
			t.Fatalf("policy lost tasks: %d of %d", total, len(tt.Tasks))
		}
	}
	// Blocking order respected under EarliestShelf.
	phaseOf := map[*Task]int{}
	for i, ph := range early {
		for _, tk := range ph {
			phaseOf[tk] = i
		}
	}
	for _, tk := range tt.Tasks {
		if tk.Parent != nil && phaseOf[tk] >= phaseOf[tk.Parent] {
			t.Fatalf("EarliestShelf: child phase %d >= parent phase %d",
				phaseOf[tk], phaseOf[tk.Parent])
		}
	}
}

func TestPhasePolicyString(t *testing.T) {
	if MinShelf.String() != "min-shelf" || EarliestShelf.String() != "earliest-shelf" {
		t.Fatal("policy names wrong")
	}
}

func TestPoliciesDifferOnUnbalancedTrees(t *testing.T) {
	// In join(A, join(B, join(C, D))), the build pipeline of the root's
	// inner side is a 3-deep chain while scan(A) pipelines into the root
	// task itself; the INNER chain's leaf task {scan(D) build(J0)} runs
	// in phase 0 under both policies. Construct instead a bushy plan
	// where a shallow subtree's build task can float: the task
	// {scan(C) build(J1)} of join(join(A,B), C)'s root... use a tree with
	// two subtrees of different depths.
	deep := join(leaf("B", 200), join(leaf("C", 300), leaf("D", 400)))
	p := join(deep, leaf("E", 150)) // E's build task blocks only the root
	tt := MustNewTaskTree(MustExpand(p))
	min := tt.PhasesBy(MinShelf)
	early := tt.PhasesBy(EarliestShelf)
	// The task {scan(E) build(J_root)} has no children: EarliestShelf
	// puts it in phase 0, MinShelf right before the root.
	sizes := func(phases [][]*Task) []int {
		out := make([]int, len(phases))
		for i, ph := range phases {
			out[i] = len(ph)
		}
		return out
	}
	sMin, sEarly := sizes(min), sizes(early)
	if sMin[0] >= sEarly[0] {
		t.Fatalf("expected EarliestShelf to crowd phase 0: min %v, early %v", sMin, sEarly)
	}
}

func TestExpandMaterialized(t *testing.T) {
	p := join(leaf("A", 1000), leaf("B", 3000))
	ot, err := ExpandMaterialized(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := ot.Validate(); err != nil {
		t.Fatal(err)
	}
	if ot.Root.Kind != costmodel.Store {
		t.Fatalf("root kind = %v, want store", ot.Root.Kind)
	}
	if ot.Root.Spec.InTuples != 3000 || ot.Root.Spec.ResultTuples != 3000 {
		t.Fatalf("store cardinalities: %+v", ot.Root.Spec)
	}
	// The store joins the root pipeline: same task as the probe.
	tt := MustNewTaskTree(ot)
	probeTask := ot.Root.Task
	found := false
	for _, op := range probeTask.Ops {
		if op.Kind == costmodel.Probe {
			found = true
		}
	}
	if !found {
		t.Fatal("store not pipelined with the root probe")
	}
	_ = tt
}

func TestExpandMaterializedSingleRelation(t *testing.T) {
	ot, err := ExpandMaterialized(leaf("R", 500))
	if err != nil {
		t.Fatal(err)
	}
	if err := ot.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ot.Ops) != 2 || ot.Root.Kind != costmodel.Store {
		t.Fatalf("ops = %d, root = %v", len(ot.Ops), ot.Root.Kind)
	}
}

func TestValidateRejectsMisplacedStore(t *testing.T) {
	p := join(leaf("A", 100), leaf("B", 200))
	ot, err := ExpandMaterialized(p)
	if err != nil {
		t.Fatal(err)
	}
	// Pretend the probe is the root again: the store is now misplaced.
	ot.Root = ot.Ops[len(ot.Ops)-2]
	if err := ot.Validate(); err == nil {
		t.Fatal("misplaced store accepted")
	}
}

func TestTaskName(t *testing.T) {
	ot := MustExpand(leaf("R", 100))
	tt := MustNewTaskTree(ot)
	if got := tt.Tasks[0].Name(); got != "{scan(R)}" {
		t.Fatalf("Name = %q", got)
	}
}

func TestEdgeKindString(t *testing.T) {
	if Pipeline.String() != "pipeline" || Blocking.String() != "blocking" {
		t.Fatal("EdgeKind strings wrong")
	}
}

// Property: for any random plan, expansion and task grouping satisfy all
// structural invariants, the operator count is 3J+1, the task count is
// J+1, and every phase contains only independent tasks.
func TestQuickStructuralInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		joins := r.Intn(40)
		p := query.MustRandom(r, query.DefaultGenConfig(joins))
		ot, err := Expand(p)
		if err != nil || ot.Validate() != nil {
			return false
		}
		if len(ot.Ops) != 3*joins+1 {
			return false
		}
		tt, err := NewTaskTree(ot)
		if err != nil || tt.Validate() != nil {
			return false
		}
		// One task per join's build pipeline plus the root pipeline.
		if len(tt.Tasks) != joins+1 {
			return false
		}
		total := 0
		for _, phase := range tt.Phases() {
			total += len(phase)
		}
		return total == len(tt.Tasks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExpandAndGroup40Joins(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	p := query.MustRandom(r, query.DefaultGenConfig(40))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt := MustNewTaskTree(MustExpand(p))
		if tt.Root == nil {
			b.Fatal("no root")
		}
	}
}

// TestExpandAllocs gates the expansion's allocations per tree, not per
// operator: Expand + NewTaskTree take the same count at 3 joins as at
// 30: nine, four for the operator tree and five for the task tree. When
// every operator, name and task was its own object they took 51 at 3
// joins and 357 at 30. Each name must still read kind(label), as the
// goldens and the rendered schedules spell it, and every task's Ops and
// Children windows must end at their length, so that an append to one
// cannot write into its neighbour's.
func TestExpandAllocs(t *testing.T) {
	count := func(joins int, materialized bool) float64 {
		p := query.MustRandom(rand.New(rand.NewSource(int64(joins))), query.DefaultGenConfig(joins))
		expand := Expand
		if materialized {
			expand = ExpandMaterialized
		}
		run := func() {
			ot, err := expand(p)
			if err != nil {
				t.Fatal(err)
			}
			MustNewTaskTree(ot)
		}
		ot, _ := expand(p)
		for _, op := range ot.Ops {
			label := "result"
			switch op.Kind {
			case costmodel.Scan:
				label = op.Source.Relation.Name
			case costmodel.Build, costmodel.Probe:
				label = "J" + strconv.Itoa(op.JoinID)
			}
			if want := op.Kind.String() + "(" + label + ")"; op.Name != want {
				t.Fatalf("joins=%d: operator %d named %q, want %q", joins, op.ID, op.Name, want)
			}
		}
		for _, tk := range MustNewTaskTree(ot).Tasks {
			if cap(tk.Ops) != len(tk.Ops) || cap(tk.Children) != len(tk.Children) {
				t.Fatalf("joins=%d: task %d windows have spare capacity", joins, tk.ID)
			}
		}
		return testing.AllocsPerRun(20, run)
	}
	for _, materialized := range []bool{false, true} {
		small, large := count(3, materialized), count(30, materialized)
		t.Logf("materialized=%v: allocs at 3 joins %.0f, at 30 joins %.0f", materialized, small, large)
		if small != large || large > 9 {
			t.Errorf("materialized=%v: Expand + NewTaskTree allocate %.0f times at 3 joins and %.0f at 30, want one count <= 9",
				materialized, small, large)
		}
	}
}
