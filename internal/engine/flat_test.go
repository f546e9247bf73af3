package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mdrs/internal/costmodel"
	"mdrs/internal/obs"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/sched"
)

// TestRadixPartitionMatchesReference checks the two-pass radix scatter
// against the reference append-per-tuple map partitioning of a Scan's
// stream: identical partition keys in identical order, for uniform and
// skewed keys and for both sides of a join.
func TestRadixPartitionMatchesReference(t *testing.T) {
	p := join(leaf("A", 5000), leaf("B", 1700))
	for _, skew := range []float64{0, 1.4} {
		ds, err := GenerateOpts(p, GenOptions{Seed: 9, SkewS: skew})
		if err != nil {
			t.Fatal(err)
		}
		for leafIdx := int32(0); leafIdx < 2; leafIdx++ {
			scan := leafTuplesRef(ds, leafIdx)
			for _, n := range []int{1, 3, 8, 64} {
				want, err := partitionByKey(ds, scan, p, n)
				if err != nil {
					t.Fatal(err)
				}
				ar := getArena()
				rp, err := radixPartition(ar, ds, p, stream{leaf: leafIdx, n: len(scan)}, n)
				if err != nil {
					t.Fatal(err)
				}
				for k := 0; k < n; k++ {
					where := fmt.Sprintf("skew=%g leaf=%d n=%d partition %d", skew, leafIdx, n, k)
					if rp.size(k) != len(want[k]) {
						t.Fatalf("%s holds %d keys, want %d", where, rp.size(k), len(want[k]))
					}
					for i, tp := range want[k] {
						key, err := ds.Key(tp, p)
						if err != nil {
							t.Fatal(err)
						}
						if rp.keys(k)[i] != key {
							t.Fatalf("%s: key %d = %d, want %d", where, i, rp.keys(k)[i], key)
						}
					}
				}
				rp.release(ar)
				putArena(ar)
			}
		}
	}
}

// TestRadixPartitionRejectsForeignLeaf mirrors the reference path's
// per-tuple key error: a stream whose carrier leaf holds no key column
// for the join must fail, naming the leaf.
func TestRadixPartitionRejectsForeignLeaf(t *testing.T) {
	// Two independent joins: leaf C carries no key for join (A ⋈ B).
	ab := join(leaf("A", 300), leaf("B", 100))
	p := join(ab, leaf("C", 900))
	ds := MustGenerate(p, 2)
	cIdx, err := ds.LeafIndex(p.Inner)
	if err != nil {
		t.Fatal(err)
	}
	ar := getArena()
	defer putArena(ar)
	_, err = radixPartition(ar, ds, ab, stream{leaf: cIdx, n: 900}, 4)
	if err == nil || !strings.Contains(err.Error(), "leaf C carries no key") {
		t.Fatalf("partitioning a foreign leaf's stream gave %v, want the leaf named", err)
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
	ar := getArena()
	defer putArena(ar)
	for _, n := range []int{0, 299, 301} {
		_, err := radixPartition(ar, ds, p, stream{leaf: 0, n: n}, 4)
		want := fmt.Sprintf("stream of %d rows is not the whole of leaf A (300 rows)", n)
		if err == nil || err.Error() != want {
			t.Fatalf("partitioning %d of leaf A's 300 rows gave %v, want %q", n, err, want)
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

// emptySet lays out one keySet of the given kind for m keys by hand,
// with the array length carveSets would carve.
func emptySet(kind tableKind, domain, m int) *keySet {
	s := &keySet{kind: tableBits, n: int32(m), domain: domain}
	switch {
	case m == 0:
		// No array, and never open addressing: see carveSets.
	case kind == tableOA:
		s.setOA(make([]int32, oaSize(m)))
	default:
		s.words = make([]int32, bitmapWords(domain))
	}
	return s
}

// fillSet is an emptySet filled with keys.
func fillSet(t *testing.T, kind tableKind, domain int, keys []int32) *keySet {
	t.Helper()
	s := emptySet(kind, domain, len(keys))
	if err := s.insert(0, keys); err != nil {
		t.Fatal(err)
	}
	return s
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

// setForms is every way a key set is laid out.
var setForms = []struct {
	name string
	kind tableKind
}{
	{"bits", tableBits},
	{"oa", tableOA},
}

// tupleOrder sorts tuples by leaf, then row.
func tupleOrder(a, b Tuple) int {
	if a.Leaf != b.Leaf {
		return int(a.Leaf - b.Leaf)
	}
	return int(a.Row - b.Row)
}

// checkAgainstReference fills every set form with one partition of the
// smaller operand's keys and checks one carrier partition (keys and
// rows of leaf 0) against it. The reference map table answers the same
// join both ways round: with the carrier as the probe side (outer
// carrier) and with the carrier as the build side (inner carrier).
// Both must emit as many tuples as the carrier partition holds keys the
// set does not miss, and when the set misses none, both must emit the
// whole carrier partition.
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
	for _, form := range setForms {
		misses, err := fillSet(t, form.kind, domain, setKeys).misses(keys)
		if err != nil {
			t.Fatalf("%s: %v", form.name, err)
		}
		emitted := len(keys) - misses
		if emitted != len(wantPres) || emitted != len(wantMatch) {
			t.Fatalf("%s semi-join emits %d tuples, want the outer-carrier probe's %d and the inner-carrier probe's %d",
				form.name, emitted, len(wantPres), len(wantMatch))
		}
		if misses == 0 {
			slices.SortFunc(wantMatch, tupleOrder)
			whole := slices.Clone(carrier)
			slices.SortFunc(whole, tupleOrder)
			if !slices.Equal(wantPres, carrier) || !slices.Equal(wantMatch, whole) {
				t.Fatalf("%s semi-join misses nothing, but the reference does not emit the whole carrier partition", form.name)
			}
		}
	}
}

// TestBuildTableLayouts checks every set form on hand-picked partitions:
// a carrier with repeated keys, an empty set, and keys on the bitmap's
// word boundaries; then that a repeated key on the set's side is a
// *DuplicateKeyError naming the join and the key, and that the bitmap
// rejects out-of-domain keys on insert and on the check instead of
// counting them as misses.
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
	// is missing from the set; the repeated key 3 is found twice.
	for _, form := range setForms {
		misses, err := fillSet(t, form.kind, 5, []int32{3, 1, 0}).misses([]int32{3, 2, 0, 3, 1})
		if err != nil {
			t.Fatal(err)
		}
		if misses != 1 {
			t.Fatalf("%s check counts %d misses, want 1", form.name, misses)
		}
		var dup *DuplicateKeyError
		if err := emptySet(form.kind, 5, 4).insert(7, []int32{3, 1, 3, 0}); !errors.As(err, &dup) || *dup != (DuplicateKeyError{Join: 7, Key: 3}) ||
			!strings.Contains(err.Error(), "join 7: key 3") {
			t.Fatalf("%s: inserting key 3 twice gave %v, want a DuplicateKeyError for join 7, key 3", form.name, err)
		}
	}

	// Out-of-domain keys are dataflow bugs, not silent drops.
	outside := func(err error) bool { return err != nil && strings.Contains(err.Error(), "outside domain [0, 70)") }
	for _, bad := range []int32{-1, 70, math.MaxInt32, math.MinInt32} {
		s := fillSet(t, tableBits, 70, []int32{69, 0})
		if _, err := s.misses([]int32{bad}); !outside(err) {
			t.Fatalf("check of key %d outside [0, 70): %v", bad, err)
		}
		if err := s.insert(0, []int32{5, bad}); !outside(err) {
			t.Fatalf("insert of key %d outside [0, 70): %v", bad, err)
		}
	}
}

// TestLayoutsMatchReferenceOnGeneratedPartitions is the layout check as
// a property: a join's two sides are generated (uniform and Zipf) and
// partitioned at several degrees, and in every partition every set form
// filled with the smaller side's keys must pass the larger side whole,
// as the reference map table joins the two, either side built.
func TestLayoutsMatchReferenceOnGeneratedPartitions(t *testing.T) {
	p := join(leaf("A", 3000), leaf("B", 700))
	for _, skew := range []float64{0, 1.4} {
		ds, err := GenerateOpts(p, GenOptions{Seed: 23, SkewS: skew})
		if err != nil {
			t.Fatal(err)
		}
		domain := ds.joins[p].domain
		for _, n := range []int{1, 3, 8, 16, 64} {
			ar := getArena()
			big, err := radixPartition(ar, ds, p, stream{leaf: 0, n: 3000}, n)
			if err != nil {
				t.Fatal(err)
			}
			small, err := radixPartition(ar, ds, p, stream{leaf: 1, n: 700}, n)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < n; k++ {
				// A carrier key's position in the partitioning stands
				// in for its row: positions are distinct, as rows are.
				pos := make([]int32, big.size(k))
				for i := range pos {
					pos[i] = big.starts[k] + int32(i)
				}
				checkAgainstReference(t, domain, small.keys(k), big.keys(k), pos)
			}
			big.release(ar)
			small.release(ar)
			putArena(ar)
		}
	}
}

// TestOpenAddressingSpreadsWithinPartition bounds the mean distance of
// an entry from its home slot when the table holds one partition of a
// run of sequential keys at a power-of-two degree. The exchange picked
// the partition by the same hash mod n, so the partition's keys agree
// on the hash's low log2(n) bits; taking the home slot from those bits
// left 1/n of the slots as homes and a mean displacement of 1.5 at
// n = 8 and 3.5 at n = 16, where the high bits give 0.00 and 0.05.
func TestOpenAddressingSpreadsWithinPartition(t *testing.T) {
	for _, n := range []int{8, 16} {
		for part := 0; part < n; part++ {
			var keys []int32
			for key := int32(0); key < 1<<16; key++ {
				if partitionOf(key, n) == part {
					keys = append(keys, key)
				}
			}
			s := fillSet(t, tableOA, 1<<16, keys)
			steps := 0
			for j, key := range s.keys {
				if key >= 0 {
					steps += int((uint32(j) - s.home(key)) & s.mask)
				}
			}
			if mean := float64(steps) / float64(len(keys)); mean > 0.25 {
				t.Errorf("n = %d partition %d: %d keys sit %.2f slots from home on average, want <= 0.25",
					n, part, len(keys), mean)
			}
		}
	}
}

// TestBitmapOK pins the one layout threshold: a bit per domain key
// against eight words per build tuple plus a constant.
func TestBitmapOK(t *testing.T) {
	if !bitmapOK(32*1024+31, 0) {
		t.Fatal("small domains should always get a bitmap")
	}
	if !bitmapOK(32*(8*1000+1024)+31, 1000) {
		t.Fatal("boundary domain should get a bitmap")
	}
	if bitmapOK(32*(8*1000+1025), 1000) {
		t.Fatal("past-boundary domain should fall back to open addressing")
	}
}

// TestE2EShapeBuildsNoOpenAddressingTable runs the benchmark's
// query_e2e shape — six joins over relations of 10k to 50k tuples,
// every operator at degree 16 — and requires every clone's key set,
// whichever side fills it, to be a bitmap: sizing a clone's table
// against the whole join's key domain used to send all of them to open
// addressing.
func TestE2EShapeBuildsNoOpenAddressingTable(t *testing.T) {
	p := e2ePlan()
	ds := MustGenerate(p, 1)
	met := obs.NewMetrics()
	e := testEngine()
	e.Rec = met
	if _, err := e.Run(ds, degreeSchedule(t, p, 16)); err != nil {
		t.Fatal(err)
	}
	c := met.Snapshot().Counters
	if c["engine.tables_oa"] != 0 || c["engine.tables_bits"] != 6*16 {
		t.Fatalf("key sets: %d bits, %d open-addressing; want 96 bitmaps and no open addressing",
			c["engine.tables_bits"], c["engine.tables_oa"])
	}
}

// runAllocs runs s over ds and returns the run's error and how many
// buffers its arena had to allocate.
func runAllocs(e Engine, ds *Dataset, s *sched.Schedule) (int64, error) {
	met := obs.NewMetrics()
	e.Rec = met
	_, err := e.Run(ds, s)
	return met.Snapshot().Counters["engine.arena_allocs"], err
}

// warmArena runs s over ds until the idle arena holds every buffer the
// run needs, and fails unless a further run allocates none.
func warmArena(t *testing.T, ds *Dataset, s *sched.Schedule) {
	t.Helper()
	for i := 0; i < 4; i++ {
		n, err := runAllocs(testEngine(), ds, s)
		if err != nil {
			t.Fatal(err)
		}
		if i == 3 && n != 0 {
			t.Fatalf("warm run allocated %d arena buffers, want 0", n)
		}
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

// TestFailedRunReturnsTablesToArena fails a probe after its build has
// stored the join's state: the run's cleanup must hand its buffers back
// to the arena with everything else, so a clean run of the same plan
// straight after allocates nothing. The join's build side is its larger
// operand, so its stored partitioning is the largest buffer of the run
// and no other free buffer can stand in for it.
func TestFailedRunReturnsTablesToArena(t *testing.T) {
	p := join(leaf("A", 8000), leaf("B", 20000))
	ds := MustGenerate(p, 71)
	s := scheduleFor(t, p, 8)
	warmArena(t, ds, s)
	failing := testEngine()
	failing.failClone = failCloneOn(costmodel.Probe, 0)
	if _, err := runAllocs(failing, ds, s); err == nil {
		t.Fatal("injected probe fault was swallowed")
	}
	if n, err := runAllocs(testEngine(), ds, s); err != nil || n != 0 {
		t.Fatalf("clean run after a failed one allocated %d arena buffers (error %v), want 0", n, err)
	}
}

// TestCardinalityFailureReturnsResultToArena fails a run on the join's
// cardinality check, after the probe has checked its carrier keys: the
// probe must hand back its partitioning and the join's sets, so a clean
// run straight after allocates nothing.
func TestCardinalityFailureReturnsResultToArena(t *testing.T) {
	p := join(leaf("A", 8000), leaf("B", 20000))
	ds := MustGenerate(p, 71)
	s := scheduleFor(t, p, 8)
	warmArena(t, ds, s)
	probe := placedOp(t, s, costmodel.Probe)
	probe.Spec.ResultTuples++
	_, err := runAllocs(testEngine(), ds, s)
	probe.Spec.ResultTuples--
	if err == nil || !strings.Contains(err.Error(), "produced 20000 tuples, expected 20001") {
		t.Fatalf("run against a perturbed cardinality gave %v, want the join's cardinality error", err)
	}
	if n, err := runAllocs(testEngine(), ds, s); err != nil || n != 0 {
		t.Fatalf("clean run after a failed one allocated %d arena buffers (error %v), want 0", n, err)
	}
}

// TestRepeatedSmallerSideKeyIsAnError plants a repeated key in a join's
// smaller operand, which fills the key sets from the build side under an
// outer carrier and from the probe side under an inner one. The run
// must fail in that operator with a *DuplicateKeyError naming the join
// and the key, and give its buffers back to the arena.
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
			warmArena(t, ds, s)
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
			_, err = runAllocs(testEngine(), ds, s)
			col[1] = saved
			op := placedOp(t, s, c.op)
			var dup *DuplicateKeyError
			if !errors.As(err, &dup) || *dup != (DuplicateKeyError{Join: op.JoinID, Key: col[0]}) ||
				!strings.Contains(err.Error(), op.Name+": ") {
				t.Fatalf("run with key %d repeated gave %v, want a DuplicateKeyError from %s", col[0], err, op.Name)
			}
			if n, err := runAllocs(testEngine(), ds, s); err != nil || n != 0 {
				t.Fatalf("clean run after a failed one allocated %d arena buffers (error %v), want 0", n, err)
			}
		})
	}
}

// TestArenaReuse checks the free-list round trip: a returned buffer
// satisfies the next adequate request, capacities are rounded to powers
// of two, and the reuse/alloc tallies track both outcomes.
func TestArenaReuse(t *testing.T) {
	ar := &arena{}
	b := ar.getInt32(100)
	if len(b) != 100 || cap(b) != 128 {
		t.Fatalf("fresh buffer len %d cap %d, want 100/128", len(b), cap(b))
	}
	ar.putInt32(b)
	c := ar.getInt32(120)
	if len(c) != 120 || &c[:1][0] != &b[:1][0] {
		t.Fatal("adequate free buffer not reused")
	}
	if ar.allocs != 1 || ar.reuses != 1 {
		t.Fatalf("tallies allocs=%d reuses=%d, want 1/1", ar.allocs, ar.reuses)
	}

	// Best fit: the smallest adequate buffer wins.
	ar.putInt32(make([]int32, 0, 256))
	ar.putInt32(make([]int32, 0, 32))
	got := ar.getInt32(20)
	if cap(got) != 32 {
		t.Fatalf("best-fit picked cap %d, want 32", cap(got))
	}

	ar.resetStats()
	if ar.allocs != 0 || ar.reuses != 0 {
		t.Fatal("resetStats left tallies set")
	}
}

// TestWarmRunsStopAllocating is the arena's end-to-end payoff: after
// cold runs prime the pooled buffers, repeat runs allocate a small,
// plan-size-independent amount — the Report itself and fixed
// per-operator bookkeeping, where the reference path allocates
// O(tuples) per operator. The ceilings are about 1.25× what a warm run
// read once streams became carrier rows (117 on the 8-join chain at
// P = 8, 95 on the query_e2e shape at P = 16), and whole-leaf streams
// read the same. Streams of (leaf, row)
// tuples read 128 and 104 with the clones running serially; the clone
// fan-out that preceded them read 378 and 293 at GOMAXPROCS 2 (277 and
// 217 at 1, as AllocsPerRun measures), and the serial mode beside it
// 227 and 179.
func TestWarmRunsStopAllocating(t *testing.T) {
	for _, c := range []struct {
		name  string
		plan  *query.PlanNode
		sites int
		max   float64
	}{
		{"chain8", chainPlan([]int{5000, 2000, 7000, 1200, 6400, 2800, 9000, 3300, 7500}), 8, 146},
		{"e2e", e2ePlan(), 16, 119},
	} {
		ds := MustGenerate(c.plan, 71)
		s := scheduleFor(t, c.plan, c.sites)
		eng := testEngine()
		for i := 0; i < 3; i++ { // warm the idle arena
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
