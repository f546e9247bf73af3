package sched

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mdrs/internal/costmodel"
	"mdrs/internal/obs"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
)

func fpScheduler() TreeScheduler {
	return TreeScheduler{
		Model:   costmodel.Model{Params: costmodel.DefaultParams()},
		Overlap: resource.MustOverlap(0.5),
		P:       16,
		F:       0.3,
	}
}

func fpTree(seed int64, joins int) *plan.TaskTree {
	r := rand.New(rand.NewSource(seed))
	p := query.MustRandom(r, query.DefaultGenConfig(joins))
	return plan.MustNewTaskTree(plan.MustExpand(p))
}

// Structurally identical plans fingerprint equal, even across distinct
// tree instances; any differing input — tree shape, spec, P, F, ε,
// policy, homes, model parameters — must change the digest.
func TestFingerprintDistinguishesInputs(t *testing.T) {
	ts := fpScheduler()
	base := ts.Fingerprint(fpTree(7, 6))

	if got := ts.Fingerprint(fpTree(7, 6)); got != base {
		t.Fatal("identical plan builds fingerprint differently")
	}
	if got := ts.Fingerprint(fpTree(8, 6)); got == base {
		t.Fatal("different plan shares the fingerprint")
	}

	mut := ts
	mut.P = 17
	if mut.Fingerprint(fpTree(7, 6)) == base {
		t.Fatal("changed P shares the fingerprint")
	}
	mut = ts
	mut.F = 0.31
	if mut.Fingerprint(fpTree(7, 6)) == base {
		t.Fatal("changed F shares the fingerprint")
	}
	mut = ts
	mut.Overlap = resource.MustOverlap(0.51)
	if mut.Fingerprint(fpTree(7, 6)) == base {
		t.Fatal("changed overlap shares the fingerprint")
	}
	mut = ts
	mut.Policy = plan.EarliestShelf
	if mut.Fingerprint(fpTree(7, 6)) == base {
		t.Fatal("changed policy shares the fingerprint")
	}
	mut = ts
	mut.Homes = map[int][]int{0: {1, 2}}
	if mut.Fingerprint(fpTree(7, 6)) == base {
		t.Fatal("added homes share the fingerprint")
	}
	mut = ts
	mut.Model.Params.Alpha *= 2
	if mut.Fingerprint(fpTree(7, 6)) == base {
		t.Fatal("changed model parameters share the fingerprint")
	}

	tt := fpTree(7, 6)
	tt.Tasks[0].Ops[0].Spec.InTuples++
	if ts.Fingerprint(tt) == base {
		t.Fatal("changed operator spec shares the fingerprint")
	}

	// Two names whose concatenation is kept but whose split moves must
	// not alias, also where the move widens a length prefix from one
	// byte (127) to two (128).
	ops := fpTree(7, 6).Tasks[0].Ops
	a, b, long := ops[0].Name, ops[1].Name, strings.Repeat("x", 127)
	for _, pair := range [][2][2]string{
		{{a, b}, {a[:len(a)-1], a[len(a)-1:] + b}},
		{{a, b}, {a + b[:1], b[1:]}},
		{{long, "x" + b}, {long + "x", b}},
	} {
		var fps [2]Fingerprint
		for i, names := range pair {
			tt := fpTree(7, 6)
			tt.Tasks[0].Ops[0].Name, tt.Tasks[0].Ops[1].Name = names[0], names[1]
			fps[i] = ts.Fingerprint(tt)
		}
		if fps[0] == fps[1] {
			t.Errorf("names %q and %q share the fingerprint", pair[0], pair[1])
		}
	}
	// No two names are adjacent in the digested fields, so the encoder
	// is checked on adjacent strings directly.
	enc := func(ss ...string) string {
		var e fpEncoder
		for _, s := range ss {
			e.str(s)
		}
		return string(e.buf)
	}
	if enc("ab", "c") == enc("a", "bc") || enc(long, "xy") == enc(long+"x", "y") {
		t.Error("a string's bytes run into the next string's")
	}

	// A nil link encodes as ID −1: unlinking a consumer, a build or a
	// parent, or linking to operator 0 instead of nil, changes the digest.
	for name, mutate := range map[string]func(tt *plan.TaskTree){
		"consumer unlinked": func(tt *plan.TaskTree) { tt.Tasks[0].Ops[0].Consumer = nil },
		"root consumer set": func(tt *plan.TaskTree) { tt.Root.Ops[len(tt.Root.Ops)-1].Consumer = tt.Tasks[0].Ops[0] },
		"build unlinked": func(tt *plan.TaskTree) {
			for _, op := range tt.Root.Ops {
				op.BuildOp = nil
			}
		},
		"parent unlinked": func(tt *plan.TaskTree) { tt.Tasks[1].Parent = nil },
	} {
		tt := fpTree(7, 6)
		mutate(tt)
		if ts.Fingerprint(tt) == base {
			t.Errorf("%s: shares the fingerprint", name)
		}
	}
}

// TestFingerprintAllocs gates the Warm hook's per-candidate identity
// cost: once its pooled buffer has grown, Fingerprint allocates nothing
// (it took 19 allocations at 5 joins and 64 at 20 when every field went
// through hash.Write and every name was copied to a []byte), with or
// without rooting constraints.
func TestFingerprintAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops encoders under the race detector")
	}
	ts := fpScheduler()
	homed := ts
	homed.Homes = map[int][]int{0: {1, 2}, 3: {4}}
	for _, joins := range []int{5, 20} {
		tt := fpTree(1, joins)
		for _, s := range []TreeScheduler{ts, homed} {
			s.Fingerprint(tt)
			if n := testing.AllocsPerRun(50, func() { s.Fingerprint(tt) }); n != 0 {
				t.Errorf("joins=%d homes=%d: Fingerprint allocates %.0f times, want 0", joins, len(s.Homes), n)
			}
		}
	}
}

// BenchmarkFingerprint times the digest the serve layer's cache and the
// optimizer's Warm hook take of every tree.
func BenchmarkFingerprint(b *testing.B) {
	ts := fpScheduler()
	for _, joins := range []int{5, 20} {
		tt := fpTree(1, joins)
		b.Run(fmt.Sprintf("joins=%d", joins), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ts.Fingerprint(tt)
			}
		})
	}
}

// Fields that never influence the schedule — the recorder and the cost
// cache — must not influence the fingerprint either, and the homes
// digest must not depend on map iteration order.
func TestFingerprintIgnoresNonSemanticFields(t *testing.T) {
	ts := fpScheduler()
	tt := fpTree(3, 5)
	base := ts.Fingerprint(tt)

	mut := ts
	mut.Rec = obs.NewMetrics()
	mut.Cache = costmodel.NewCache(ts.Model)
	if mut.Fingerprint(tt) != base {
		t.Fatal("recorder/cache changed the fingerprint")
	}

	homes := map[int][]int{0: {0, 1}, 1: {2}, 2: {3, 4}}
	a, b := ts, ts
	a.Homes = homes
	b.Homes = map[int][]int{2: {3, 4}, 0: {0, 1}, 1: {2}}
	if a.Fingerprint(tt) != b.Fingerprint(tt) {
		t.Fatal("homes digest depends on map iteration order")
	}
}

// The cache contract end to end: equal fingerprints imply byte-identical
// schedules. Schedule the same plan twice (once cached, once not) and
// compare the rendered JSON byte for byte.
func TestFingerprintImpliesIdenticalSchedule(t *testing.T) {
	ts := fpScheduler()
	for seed := int64(0); seed < 8; seed++ {
		tt := fpTree(seed, 4+int(seed%5))
		tt2 := fpTree(seed, 4+int(seed%5))
		if ts.Fingerprint(tt) != ts.Fingerprint(tt2) {
			t.Fatalf("seed %d: rebuild changed fingerprint", seed)
		}
		cached := ts
		cached.Cache = costmodel.NewCache(ts.Model)
		s1, err := ts.Schedule(tt)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := cached.Schedule(tt2)
		if err != nil {
			t.Fatal(err)
		}
		j1, err := EncodeJSON(s1)
		if err != nil {
			t.Fatal(err)
		}
		j2, err := EncodeJSON(s2)
		if err != nil {
			t.Fatal(err)
		}
		if string(j1) != string(j2) {
			t.Fatalf("seed %d: cached schedule differs from uncached", seed)
		}
	}
}

// The same identity must hold for multi-query batches: attaching the
// cost cache to ScheduleBatch changes no byte of the combined schedule.
func TestBatchCachedIdenticalToUncached(t *testing.T) {
	ts := fpScheduler()
	cached := ts
	cached.Cache = costmodel.NewCache(ts.Model)
	for seed := int64(0); seed < 4; seed++ {
		trees := []*plan.TaskTree{
			fpTree(seed, 4), fpTree(seed+100, 7), fpTree(seed, 4),
		}
		s1, err := ts.ScheduleBatch(trees)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := cached.ScheduleBatch(trees)
		if err != nil {
			t.Fatal(err)
		}
		j1, err := EncodeJSON(s1)
		if err != nil {
			t.Fatal(err)
		}
		j2, err := EncodeJSON(s2)
		if err != nil {
			t.Fatal(err)
		}
		if string(j1) != string(j2) {
			t.Fatalf("seed %d: cached batch schedule differs from uncached", seed)
		}
	}
}
