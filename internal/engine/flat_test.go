package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mdrs/internal/costmodel"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/sched"
)

// exchangeBoth runs both exchange orders of one join at degree n over
// the smaller operand's keys and the carrier's: the outer-carrier
// order, where the build fills the bitmap and the probe's pass counts
// the carrier's misses, and the inner-carrier order, where the build
// counts the carrier and the probe fills the bitmap and then checks the
// carrier's column against it. It fails unless the two orders give the
// same counts and misses, and returns them.
func exchangeBoth(t *testing.T, domain, n int, small, carrier []int32) (smallCounts, carrierCounts, misses []int32) {
	t.Helper()
	bitmap := make([]int32, bitmapWords(domain))
	smallCounts, carrierCounts, misses = make([]int32, n), make([]int32, n), make([]int32, n)
	if err := fillBitmap(bitmap, smallCounts, small, domain, 0); err != nil {
		t.Fatal(err)
	}
	if err := countCarrier(bitmap, carrierCounts, misses, carrier, domain); err != nil {
		t.Fatal(err)
	}

	// Stale bytes in every buffer: each pass must clear what it fills.
	bitmap2, small2, carrier2, misses2 := make([]int32, len(bitmap)), make([]int32, n), make([]int32, n), make([]int32, n)
	for _, b := range [][]int32{bitmap2, small2, carrier2, misses2} {
		for i := range b {
			b[i] = -1
		}
	}
	if err := countCarrier(nil, carrier2, nil, carrier, domain); err != nil {
		t.Fatal(err)
	}
	if err := fillBitmap(bitmap2, small2, small, domain, 0); err != nil {
		t.Fatal(err)
	}
	countMisses(bitmap2, misses2, carrier)
	if !slices.Equal(bitmap, bitmap2) || !slices.Equal(smallCounts, small2) ||
		!slices.Equal(carrierCounts, carrier2) || !slices.Equal(misses, misses2) {
		t.Fatalf("the exchange orders disagree: outer carrier counts %v / %v misses %v, inner carrier %v / %v misses %v",
			smallCounts, carrierCounts, misses, small2, carrier2, misses2)
	}
	return smallCounts, carrierCounts, misses
}

// TestExchangeCountsMatchReference checks the one-pass exchanges
// against the reference executor on a join whose smaller operand lost
// three keys (moved past the join's old domain, which grows to hold
// them), so that carrier rows miss: for uniform and skewed keys at
// degrees 1, 3, 8 and 64, both sides' per-clone counts must equal a
// partitionOf histogram, and each clone's misses must be the rows its
// reference clone drops, with the carrier as the probe side and as the
// build side.
func TestExchangeCountsMatchReference(t *testing.T) {
	p := join(leaf("A", 5000), leaf("B", 1700))
	for _, skew := range []float64{0, 1.4} {
		ds, err := GenerateOpts(p, GenOptions{Seed: 9, SkewS: skew})
		if err != nil {
			t.Fatal(err)
		}
		jc := ds.joins[p]
		small := jc.cols[1]
		for i := int32(0); i < 3; i++ {
			small[slices.Index(small, i)] = int32(jc.domain)
			jc.domain++
		}
		carrier := jc.cols[0]
		carrierRef, smallRef := leafTuplesRef(ds, 0), leafTuplesRef(ds, 1)
		for _, n := range []int{1, 3, 8, 64} {
			smallCounts, carrierCounts, misses := exchangeBoth(t, jc.domain, n, small, carrier)
			histogram := func(col []int32) []int32 {
				h := make([]int32, n)
				for _, key := range col {
					h[partitionOf(key, n)]++
				}
				return h
			}
			if !slices.Equal(smallCounts, histogram(small)) || !slices.Equal(carrierCounts, histogram(carrier)) {
				t.Fatalf("skew=%g n=%d: counts %v and %v, want the histograms %v and %v",
					skew, n, smallCounts, carrierCounts, histogram(small), histogram(carrier))
			}
			carrierParts, err := partitionByKey(ds, carrierRef, p, n)
			if err != nil {
				t.Fatal(err)
			}
			smallParts, err := partitionByKey(ds, smallRef, p, n)
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for k := 0; k < n; k++ {
				keysOf := func(part []Tuple) []int32 {
					keys := make([]int32, len(part))
					for i, tp := range part {
						if keys[i], err = ds.Key(tp, p); err != nil {
							t.Fatal(err)
						}
					}
					return keys
				}
				ck, sk := keysOf(carrierParts[k]), keysOf(smallParts[k])
				pres, _ := refProbe(refTable(smallParts[k], sk), carrierParts[k], ck)
				_, matches := refProbe(refTable(carrierParts[k], ck), smallParts[k], sk)
				want := len(carrierParts[k]) - len(pres)
				if int(misses[k]) != want || len(matches) != len(pres) {
					t.Fatalf("skew=%g n=%d clone %d: %d misses, want the reference's %d (inner-carrier arm emits %d of %d)",
						skew, n, k, misses[k], want, len(matches), len(pres))
				}
				total += want
			}
			if total == 0 {
				t.Fatalf("skew=%g n=%d: no carrier row misses; the test no longer plants any", skew, n)
			}
		}
	}
}

// TestRadixPartitionRejectsForeignLeaf mirrors the reference path's
// per-tuple key error in the exchange's key-column resolver: a stream
// whose carrier leaf holds no key column for the join must fail,
// naming the leaf.
func TestRadixPartitionRejectsForeignLeaf(t *testing.T) {
	// Two independent joins: leaf C carries no key for join (A ⋈ B).
	ab := join(leaf("A", 300), leaf("B", 100))
	p := join(ab, leaf("C", 900))
	ds := MustGenerate(p, 2)
	cIdx, err := ds.LeafIndex(p.Inner)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = keyColumn(ds, ab, stream{leaf: cIdx, n: 900})
	if err == nil || !strings.Contains(err.Error(), "leaf C carries no key") {
		t.Fatalf("resolving a foreign leaf's keys gave %v, want the leaf named", err)
	}
}

// TestRadixPartitionRejectsPartialStream feeds the exchange streams
// shorter and longer than their leaf. A stream is its whole carrier
// leaf, so the exchange must refuse either with an error naming the
// leaf, where reading the key column in place would read a prefix or
// index past its end.
func TestRadixPartitionRejectsPartialStream(t *testing.T) {
	p := join(leaf("A", 300), leaf("B", 100))
	ds := MustGenerate(p, 2)
	for _, n := range []int{0, 299, 301} {
		_, _, err := keyColumn(ds, p, stream{leaf: 0, n: n})
		want := fmt.Sprintf("stream of %d rows is not the whole of leaf A (300 rows)", n)
		if err == nil || err.Error() != want {
			t.Fatalf("resolving %d of leaf A's 300 rows gave %v, want %q", n, err, want)
		}
	}
}

// TestPartitionByMatchesPartitionOf holds the reciprocal partition id
// to partitionOf's hardware remainder for every degree up to 1024, over
// sampled keys and the edges: key 0, the largest key, and the keys whose
// hash is 0xFFFFFFFF and 0x80000000.
func TestPartitionByMatchesPartitionOf(t *testing.T) {
	// hashMul is odd, so it has an inverse mod 2³² (Newton's iteration
	// doubles the correct low bits) and any hash value can be hit.
	inv := uint32(hashMul)
	for i := 0; i < 5; i++ {
		inv *= 2 - hashMul*inv
	}
	keys := []int32{0, 1, 2, 31, 32, math.MaxInt32, math.MaxInt32 - 1, math.MinInt32, -1,
		int32(inv * math.MaxUint32), int32(inv * (1 << 31))}
	if h := uint32(keys[len(keys)-2]) * hashMul; h != math.MaxUint32 {
		t.Fatalf("edge key hashes to %#x, want 0xFFFFFFFF", h)
	}
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		keys = append(keys, int32(r.Uint32()))
	}
	for n := 1; n <= 1024; n++ {
		recip := reciprocalOf(n)
		for _, key := range keys {
			if got, want := partitionBy(key, recip, uint64(n)), partitionOf(key, n); int(got) != want {
				t.Fatalf("partitionBy(%d, n=%d) = %d, partitionOf = %d", key, n, got, want)
			}
		}
	}
}

// refTable is the reference executor's build table: a Go map from key
// to the build tuples carrying it, in input order.
func refTable(build []Tuple, keys []int32) map[int32][]Tuple {
	table := make(map[int32][]Tuple, len(keys))
	for i, key := range keys {
		table[key] = append(table[key], build[i])
	}
	return table
}

// refProbe probes a refTable the way the reference executor does and
// returns what its outer-carrier arm (the probe tuple on any match) and
// its inner-carrier arm (every matching build tuple) emit.
func refProbe(table map[int32][]Tuple, probe []Tuple, probeKeys []int32) (pres, matches []Tuple) {
	for i, key := range probeKeys {
		if len(table[key]) > 0 {
			pres = append(pres, probe[i])
		}
		matches = append(matches, table[key]...)
	}
	return pres, matches
}

// tupleOrder sorts tuples by leaf, then row.
func tupleOrder(a, b Tuple) int {
	if a.Leaf != b.Leaf {
		return int(a.Leaf - b.Leaf)
	}
	return int(a.Row - b.Row)
}

// checkAgainstReference runs both exchange orders of one join at
// degree 1 over the smaller operand's keys and a carrier (keys and
// rows of leaf 0). The reference map table answers the same join both
// ways round: with the carrier as the probe side (outer carrier) and
// with the carrier as the build side (inner carrier). Both must emit
// as many tuples as the carrier holds keys the bitmap does not miss,
// and when the bitmap misses none, both must emit the whole carrier.
func checkAgainstReference(t *testing.T, domain int, setKeys, keys, rows []int32) {
	t.Helper()
	carrier := make([]Tuple, len(rows))
	for i, row := range rows {
		carrier[i] = Tuple{Leaf: 0, Row: row}
	}
	small := make([]Tuple, len(setKeys))
	for i := range small {
		small[i] = Tuple{Leaf: 1, Row: int32(i)}
	}
	wantPres, _ := refProbe(refTable(small, setKeys), carrier, keys)
	_, wantMatch := refProbe(refTable(carrier, keys), small, setKeys)
	_, _, misses := exchangeBoth(t, domain, 1, setKeys, keys)
	emitted := len(keys) - int(misses[0])
	if emitted != len(wantPres) || emitted != len(wantMatch) {
		t.Fatalf("semi-join emits %d tuples, want the outer-carrier probe's %d and the inner-carrier probe's %d",
			emitted, len(wantPres), len(wantMatch))
	}
	if misses[0] == 0 {
		slices.SortFunc(wantMatch, tupleOrder)
		whole := slices.Clone(carrier)
		slices.SortFunc(whole, tupleOrder)
		if !slices.Equal(wantPres, carrier) || !slices.Equal(wantMatch, whole) {
			t.Fatal("semi-join misses nothing, but the reference does not emit the whole carrier")
		}
	}
}

// TestBuildTableLayouts checks the join's one table, the presence
// bitmap, on hand-picked keys: a carrier with repeated keys, an empty
// smaller operand, and keys on the bitmap's word boundaries; then that
// a repeated key on the smaller side is a *DuplicateKeyError naming the
// join and the key, and that both sides' exchanges reject out-of-domain
// keys instead of counting them as misses.
func TestBuildTableLayouts(t *testing.T) {
	for name, c := range map[string]struct {
		domain int
		keys   []int32
	}{
		"duplicates":      {5, []int32{3, 1, 0}},
		"empty partition": {70, nil},
		"word boundaries": {70, []int32{32, 31, 69, 0, 63, 64}},
		"one word":        {32, []int32{31, 0}},
		"last key":        {33, []int32{32, 0}},
	} {
		t.Run(name, func(t *testing.T) {
			// Every domain key twice on the carrier side.
			var keys, rows []int32
			for i := 0; i < 2*c.domain; i++ {
				keys = append(keys, int32(i%c.domain))
				rows = append(rows, int32(100+i))
			}
			checkAgainstReference(t, c.domain, c.keys, keys, rows)
		})
	}

	// The "duplicates" case spelled out, so the expectation does not
	// rest on the reference helpers alone: of the carrier's keys, only 2
	// is missing from the bitmap; the repeated key 3 is found twice.
	if _, _, misses := exchangeBoth(t, 5, 1, []int32{3, 1, 0}, []int32{3, 2, 0, 3, 1}); misses[0] != 1 {
		t.Fatalf("check counts %d misses, want 1", misses[0])
	}
	var dup *DuplicateKeyError
	err := fillBitmap(make([]int32, 1), make([]int32, 2), []int32{3, 1, 3, 0}, 5, 7)
	if !errors.As(err, &dup) || *dup != (DuplicateKeyError{Join: 7, Key: 3}) || !strings.Contains(err.Error(), "join 7: key 3") {
		t.Fatalf("filling key 3 twice gave %v, want a DuplicateKeyError for join 7, key 3", err)
	}

	// Out-of-domain keys are dataflow bugs, not silent drops, on the
	// smaller side and on the carrier side with and without a bitmap.
	outside := func(err error) bool { return err != nil && strings.Contains(err.Error(), "outside domain [0, 70)") }
	for _, bad := range []int32{-1, 70, math.MaxInt32, math.MinInt32} {
		bitmap, counts, misses := make([]int32, bitmapWords(70)), make([]int32, 3), make([]int32, 3)
		if err := fillBitmap(bitmap, counts, []int32{5, bad}, 70, 0); !outside(err) {
			t.Fatalf("filling key %d outside [0, 70): %v", bad, err)
		}
		if err := countCarrier(bitmap, counts, misses, []int32{69, bad}, 70); !outside(err) {
			t.Fatalf("check of key %d outside [0, 70): %v", bad, err)
		}
		if err := countCarrier(nil, counts, nil, []int32{0, bad}, 70); !outside(err) {
			t.Fatalf("count of key %d outside [0, 70): %v", bad, err)
		}
	}
}

// mallocs runs s over ds with e and returns how many heap allocations
// that one run made, and its error. It reads runtime.MemStats around
// the call: testing.AllocsPerRun warms up with a call of its own, which
// would hide the very run under test. A garbage collection first
// flushes the per-P allocation caches, whose tiny-object counts reach
// MemStats only then, so that no earlier run's count lands in this
// run's window.
func mallocs(e Engine, ds *Dataset, s *sched.Schedule) (uint64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := e.Run(ds, s)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, err
}

// warmMallocs runs s over ds until the recycled run state has grown to
// the plan and returns how many allocations a warm run makes. Until the
// test ends it holds GOMAXPROCS at 1, as testing.AllocsPerRun does, so
// that no other goroutine allocates in a run's window; the idle list
// then keeps one state, the one these runs grow.
func warmMallocs(t *testing.T, ds *Dataset, s *sched.Schedule) uint64 {
	t.Helper()
	procs := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	var n uint64
	for i := 0; i < 3; i++ {
		var err error
		if n, err = mallocs(testEngine(), ds, s); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// checkCleanRun fails unless a clean run of s over ds, straight after a
// failed one, allocates exactly as often as a warm run: the failed run
// handed its whole state back, buffers and all.
func checkCleanRun(t *testing.T, ds *Dataset, s *sched.Schedule, warm uint64) {
	t.Helper()
	if n, err := mallocs(testEngine(), ds, s); err != nil || n != warm {
		t.Fatalf("clean run after a failed one allocated %d times (error %v), a warm run %d", n, err, warm)
	}
}

// placedOp returns the schedule's one operator of the given kind.
func placedOp(t *testing.T, s *sched.Schedule, kind costmodel.OpKind) *plan.Operator {
	t.Helper()
	var found *plan.Operator
	for _, ph := range s.Phases {
		for _, pl := range ph.Placements {
			if pl.Op.Kind == kind {
				if found != nil {
					t.Fatalf("schedule places two %v operators", kind)
				}
				found = pl.Op
			}
		}
	}
	if found == nil {
		t.Fatalf("schedule places no %v operator", kind)
	}
	return found
}

// TestProbeFaultLeavesStateWarm fails a probe after its build has
// stored the join's state: the failed run must hand its run state back
// whole, so a clean run of the same plan straight after allocates
// exactly as often as a warm run. The join's build side is its larger
// operand, so the build keeps its counts and the probe has filled the
// join's bitmap, the largest buffer of the run, before the fault.
func TestProbeFaultLeavesStateWarm(t *testing.T) {
	p := join(leaf("A", 8000), leaf("B", 20000))
	ds := MustGenerate(p, 71)
	s := scheduleFor(t, p, 8)
	warm := warmMallocs(t, ds, s)
	failing := testEngine()
	failing.failClone = failCloneOn(costmodel.Probe, 0)
	if _, err := failing.Run(ds, s); err == nil {
		t.Fatal("injected probe fault was swallowed")
	}
	checkCleanRun(t, ds, s, warm)
}

// TestCardinalityFailureLeavesStateWarm fails a run on the join's
// cardinality check, after the probe has checked its carrier keys: a
// clean run straight after must allocate exactly as often as a warm
// run.
func TestCardinalityFailureLeavesStateWarm(t *testing.T) {
	p := join(leaf("A", 8000), leaf("B", 20000))
	ds := MustGenerate(p, 71)
	s := scheduleFor(t, p, 8)
	warm := warmMallocs(t, ds, s)
	probe := placedOp(t, s, costmodel.Probe)
	probe.Spec.ResultTuples++
	_, err := testEngine().Run(ds, s)
	probe.Spec.ResultTuples--
	if err == nil || !strings.Contains(err.Error(), "produced 20000 tuples, expected 20001") {
		t.Fatalf("run against a perturbed cardinality gave %v, want the join's cardinality error", err)
	}
	checkCleanRun(t, ds, s, warm)
}

// TestRepeatedSmallerSideKeyIsAnError plants a repeated key in a join's
// smaller operand, which fills the join's bitmap from the build side
// under an outer carrier and from the probe side under an inner one. The
// run must fail in that operator with a *DuplicateKeyError naming the
// join and the key, and a clean run straight after must allocate
// exactly as often as a warm run.
func TestRepeatedSmallerSideKeyIsAnError(t *testing.T) {
	for _, c := range []struct {
		name string
		plan *query.PlanNode
		op   costmodel.OpKind
	}{
		{"outer-carrier build", join(leaf("A", 8000), leaf("B", 3000)), costmodel.Build},
		{"inner-carrier probe", join(leaf("A", 3000), leaf("B", 8000)), costmodel.Probe},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := c.plan
			ds := MustGenerate(p, 5)
			s := scheduleFor(t, p, 8)
			warm := warmMallocs(t, ds, s)
			small := p.Inner
			if !OuterIsCarrier(p) {
				small = p.Outer
			}
			li, err := ds.LeafIndex(small)
			if err != nil {
				t.Fatal(err)
			}
			col := ds.joins[p].cols[li]
			saved := col[1]
			col[1] = col[0]
			_, err = testEngine().Run(ds, s)
			col[1] = saved
			op := placedOp(t, s, c.op)
			var dup *DuplicateKeyError
			if !errors.As(err, &dup) || *dup != (DuplicateKeyError{Join: op.JoinID, Key: col[0]}) ||
				!strings.Contains(err.Error(), op.Name+": ") {
				t.Fatalf("run with key %d repeated gave %v, want a DuplicateKeyError from %s", col[0], err, op.Name)
			}
			checkCleanRun(t, ds, s, warm)
		})
	}
}

// TestWarmRunsStopAllocating is the recycled run state's end-to-end
// payoff: after cold runs grow the state to the plan, a repeat run
// allocates only its Report (the struct, its map and its three slices),
// where the reference path allocates O(tuples) per operator. The
// ceilings are about 1.25× what a warm run read once the state came
// whole from run to run (6 on the 8-join chain at P = 8 and on the
// query_e2e shape at P = 16). A run-scoped buffer arena beside two maps
// and per-phase site systems read 30 and 28; per-clone key sets and
// three meter allocations per operator 117 and 95; streams of (leaf,
// row) tuples 128 and 104 with the clones running serially; the clone
// fan-out that preceded them 378 and 293 at GOMAXPROCS 2 (277 and 217
// at 1, as AllocsPerRun measures), and the serial mode beside it 227
// and 179.
func TestWarmRunsStopAllocating(t *testing.T) {
	for _, c := range []struct {
		name  string
		plan  *query.PlanNode
		sites int
		max   float64
	}{
		{"chain8", chainPlan([]int{5000, 2000, 7000, 1200, 6400, 2800, 9000, 3300, 7500}), 8, 8},
		{"e2e", e2ePlan(), 16, 8},
	} {
		ds := MustGenerate(c.plan, 71)
		s := scheduleFor(t, c.plan, c.sites)
		eng := testEngine()
		for i := 0; i < 3; i++ { // grow the recycled run state
			if _, err := eng.Run(ds, s); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := eng.Run(ds, s); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: warm allocs/run = %.0f", c.name, allocs)
		if allocs > c.max {
			t.Fatalf("%s: warm run allocates %.0f times, want <= %.0f", c.name, allocs, c.max)
		}
	}
}
