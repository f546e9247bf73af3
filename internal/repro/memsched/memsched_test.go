package memsched

import (
	"math"
	"math/rand"
	"testing"

	"mdrs/internal/costmodel"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
)

func testScheduler(p int, memBytes float64) Scheduler {
	return Scheduler{
		Model:       costmodel.Default(),
		Overlap:     resource.MustOverlap(0.5),
		P:           p,
		F:           0.7,
		MemoryBytes: memBytes,
	}
}

func taskTree(t *testing.T, joins int, seed int64) *plan.TaskTree {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	p := query.MustRandom(r, query.DefaultGenConfig(joins))
	return plan.MustNewTaskTree(plan.MustExpand(p))
}

func TestValidate(t *testing.T) {
	// 0 and +Inf both ask for unlimited memory (assumption A1).
	for _, mem := range []float64{0, math.Inf(1)} {
		if err := testScheduler(8, mem).Validate(); err != nil {
			t.Fatal(err)
		}
	}
	bad := []Scheduler{
		{Model: costmodel.Default(), P: 0, F: 0.7},
		{Model: costmodel.Default(), P: 4, F: -1},
		{Model: costmodel.Default(), P: 4, F: math.NaN()},
		{Model: costmodel.Default(), P: 4, F: math.Inf(1)},
		{Model: costmodel.Default(), P: 4, F: 0.7, TableOverhead: -1},
		{Model: costmodel.Default(), P: 4, F: 0.7, TableOverhead: math.NaN()},
		{Model: costmodel.Default(), P: 4, F: 0.7, TableOverhead: math.Inf(1)},
		{Model: costmodel.Default(), P: 4, F: 0.7, TableOverhead: math.Inf(-1)},
		{Model: costmodel.Default(), P: 4, F: 0.7, MemoryBytes: math.NaN()},
		{Model: costmodel.Default(), P: 4, F: 0.7, MemoryBytes: math.Inf(-1)},
		{P: 4, F: 0.7},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// An infinite table overhead would mark every hash table spilled with
// NaN bytes and answer faster than unlimited memory; Schedule rejects it.
func TestScheduleRejectsInfiniteTableOverhead(t *testing.T) {
	s := testScheduler(16, 1e6)
	s.TableOverhead = math.Inf(1)
	if res, err := s.Schedule(taskTree(t, 8, 1)); err == nil {
		t.Fatalf("scheduled with +Inf table overhead: response %g, spilled %g",
			res.Response, res.TotalSpilledBytes)
	}
}

func TestInfiniteMemoryMatchesTreeSchedule(t *testing.T) {
	// With capacity = +Inf the memory-aware scheduler must reproduce the
	// base TreeSchedule exactly — assumption A1 recovered.
	for seed := int64(0); seed < 5; seed++ {
		tt := taskTree(t, 12, seed)
		base, err := sched.TreeScheduler{
			Model:   costmodel.Default(),
			Overlap: resource.MustOverlap(0.5),
			P:       16, F: 0.7,
		}.Schedule(tt)
		if err != nil {
			t.Fatal(err)
		}
		mem, err := testScheduler(16, math.Inf(1)).Schedule(tt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(base.Response-mem.Response) > 1e-9 {
			t.Fatalf("seed %d: base %g != infinite-memory %g",
				seed, base.Response, mem.Response)
		}
		if mem.TotalSpilledBytes != 0 {
			t.Fatalf("seed %d: spilled %g bytes with infinite memory",
				seed, mem.TotalSpilledBytes)
		}
	}
}

func TestZeroCapacityMeansInfinite(t *testing.T) {
	tt := taskTree(t, 6, 1)
	a, err := testScheduler(8, 0).Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := testScheduler(8, math.Inf(1)).Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Response != b.Response {
		t.Fatalf("zero capacity %g != infinite %g", a.Response, b.Response)
	}
}

func TestTightMemoryCausesSpills(t *testing.T) {
	tt := taskTree(t, 10, 3)
	// 1 MB per site is far below typical table shares (relations up to
	// 100k tuples × 128 B ≈ 12.8 MB, split across ≤ 8 sites).
	res, err := testScheduler(8, 1<<20).Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSpilledBytes == 0 {
		t.Fatal("no spills under 1 MB/site")
	}
	ample, err := testScheduler(8, math.Inf(1)).Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Response <= ample.Response {
		t.Fatalf("spilling did not cost anything: tight %g, ample %g",
			res.Response, ample.Response)
	}
}

func TestResponseMonotoneInMemory(t *testing.T) {
	// More memory never hurts: response is non-increasing (within list
	// scheduling noise) as capacity grows.
	tt := taskTree(t, 10, 5)
	caps := []float64{1 << 20, 8 << 20, 64 << 20, math.Inf(1)}
	prev := math.Inf(1)
	for _, c := range caps {
		res, err := testScheduler(8, c).Schedule(tt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Response > prev*1.05 {
			t.Fatalf("capacity %g worsened response: %g -> %g", c, prev, res.Response)
		}
		prev = res.Response
	}
}

func TestSpillsShrinkWithMemory(t *testing.T) {
	tt := taskTree(t, 10, 5)
	tight, err := testScheduler(8, 1<<20).Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	roomy, err := testScheduler(8, 32<<20).Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	if roomy.TotalSpilledBytes >= tight.TotalSpilledBytes {
		t.Fatalf("32 MB spills %g >= 1 MB spills %g",
			roomy.TotalSpilledBytes, tight.TotalSpilledBytes)
	}
}

func TestPeakMemoryWithinCapacity(t *testing.T) {
	tt := taskTree(t, 12, 7)
	cap := 16.0 * (1 << 20)
	res, err := testScheduler(8, cap).Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range res.Phases {
		if ph.PeakMemory > cap+1e-6 {
			t.Fatalf("phase %d peak memory %g exceeds capacity %g",
				ph.Index, ph.PeakMemory, cap)
		}
	}
}

func TestProbesStillRootedAtBuilds(t *testing.T) {
	tt := taskTree(t, 8, 9)
	res, err := testScheduler(6, 4<<20).Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	byOp := map[*plan.Operator]*Placement{}
	for _, ph := range res.Phases {
		for _, pl := range ph.Placements {
			byOp[pl.Op] = pl
		}
	}
	for op, pl := range byOp {
		if op.BuildOp == nil {
			continue
		}
		build := byOp[op.BuildOp]
		if build == nil {
			t.Fatalf("build of %s unplaced", op.Name)
		}
		for k := range pl.Sites {
			if pl.Sites[k] != build.Sites[k] {
				t.Fatalf("%s clone %d at %d, build clone at %d",
					op.Name, k, pl.Sites[k], build.Sites[k])
			}
		}
	}
}

func TestResponseIsSumOfPhases(t *testing.T) {
	tt := taskTree(t, 10, 11)
	res, err := testScheduler(8, 8<<20).Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, ph := range res.Phases {
		sum += ph.Response
	}
	if math.Abs(sum-res.Response) > 1e-9 {
		t.Fatalf("response %g != phase sum %g", res.Response, sum)
	}
}

func TestSpillVectorAccounting(t *testing.T) {
	s := testScheduler(4, 1)
	p := s.Model.Params
	bytes := float64(100 * p.PageTuples * p.TupleBytes) // exactly 100 pages
	w := s.spillVector(bytes)
	wantDisk := 2 * 100 * p.DiskPageTime
	if math.Abs(w[resource.Disk]-wantDisk) > 1e-9 {
		t.Fatalf("spill disk = %g, want %g", w[resource.Disk], wantDisk)
	}
	wantCPU := 100 * (p.WritePageInstr + p.ReadPageInstr) / 1e6
	if math.Abs(w[resource.CPU]-wantCPU) > 1e-9 {
		t.Fatalf("spill CPU = %g, want %g", w[resource.CPU], wantCPU)
	}
	if w[resource.Net] != 0 {
		t.Fatalf("spill net = %g, want 0", w[resource.Net])
	}
}

func TestDeterministic(t *testing.T) {
	tt := taskTree(t, 10, 13)
	s := testScheduler(8, 4<<20)
	a, err := s.Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Response != b.Response || a.TotalSpilledBytes != b.TotalSpilledBytes {
		t.Fatal("non-deterministic memory-aware schedule")
	}
}

func BenchmarkMemoryAwareSchedule(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	p := query.MustRandom(r, query.DefaultGenConfig(20))
	tt := plan.MustNewTaskTree(plan.MustExpand(p))
	s := testScheduler(32, 16<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(tt); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMemoryScheduler(t *testing.T) {
	tt := taskTree(t, 10, 5)
	tight := testScheduler(12, 1<<20)
	res, err := tight.Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSpilledBytes == 0 {
		t.Fatal("1 MB sites did not spill")
	}
	resAmple, err := testScheduler(12, math.Inf(1)).Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	if resAmple.Response >= res.Response {
		t.Fatalf("ample memory %g not faster than tight %g",
			resAmple.Response, res.Response)
	}
}
