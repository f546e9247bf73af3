package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mdrs/internal/costmodel"
	"mdrs/internal/obs"
	"mdrs/internal/query"
)

// TestLeafTuplesCached pins the satellite fix: LeafTuples must return
// the slice built at Generate time, not a fresh allocation per call.
func TestLeafTuplesCached(t *testing.T) {
	p := join(leaf("A", 500), leaf("B", 200))
	ds := MustGenerate(p, 1)
	a := ds.LeafTuples(0)
	b := ds.LeafTuples(0)
	if len(a) == 0 || &a[0] != &b[0] {
		t.Fatal("LeafTuples allocates per call instead of returning the cached slice")
	}
	for r, tp := range a {
		if tp.Leaf != 0 || tp.Row != int32(r) {
			t.Fatalf("cached tuple %d = %+v, want {0 %d}", r, tp, r)
		}
	}
}

// TestRadixPartitionMatchesReference checks the two-pass radix scatter
// against the reference append-per-tuple map partitioning: identical
// partition contents in identical order, for uniform and skewed keys,
// for both sides of a join, for every payload, and both when the keys
// are gathered through the tuples and when the stream is declared a
// leaf's identity slice and the keys are read from its column in place.
func TestRadixPartitionMatchesReference(t *testing.T) {
	p := join(leaf("A", 5000), leaf("B", 1700))
	for _, skew := range []float64{0, 1.4} {
		ds, err := GenerateOpts(p, GenOptions{Seed: 9, SkewS: skew})
		if err != nil {
			t.Fatal(err)
		}
		for leafIdx := int32(0); leafIdx < 2; leafIdx++ {
			in := ds.LeafTuples(leafIdx)
			for _, n := range []int{1, 3, 8, 64} {
				want, err := partitionByKey(ds, in, p, n)
				if err != nil {
					t.Fatal(err)
				}
				for _, pay := range []payload{payKeys, payRows, payTuples} {
					for _, scanLeaf := range []int32{-1, leafIdx} {
						ar := getArena()
						rp, err := radixPartition(ar, ds, p, in, scanLeaf, n, pay)
						if err != nil {
							t.Fatal(err)
						}
						if rp.leaf != leafIdx {
							t.Fatalf("carrier leaf %d, want %d", rp.leaf, leafIdx)
						}
						for k := 0; k < n; k++ {
							where := fmt.Sprintf("skew=%g leaf=%d n=%d payload=%d scanLeaf=%d partition %d",
								skew, leafIdx, n, pay, scanLeaf, k)
							if rp.size(k) != len(want[k]) {
								t.Fatalf("%s holds %d tuples, want %d", where, rp.size(k), len(want[k]))
							}
							for i, tp := range want[k] {
								key, err := ds.Key(tp, p)
								if err != nil {
									t.Fatal(err)
								}
								if rp.keys(k)[i] != key {
									t.Fatalf("%s: co-scattered key %d = %d, want %d", where, i, rp.keys(k)[i], key)
								}
								if pay == payRows && rp.rows(k)[i] != tp.Row {
									t.Fatalf("%s: row %d = %d, want %d", where, i, rp.rows(k)[i], tp.Row)
								}
								if pay == payTuples && rp.tuples(k)[i] != tp {
									t.Fatalf("%s: tuple %d = %v, want %v", where, i, rp.tuples(k)[i], tp)
								}
							}
						}
						if (rp.rowback != nil) != (pay == payRows) || (rp.backing != nil) != (pay == payTuples) {
							t.Fatalf("payload %d scattered rows=%v tuples=%v", pay, rp.rowback != nil, rp.backing != nil)
						}
						rp.release(ar)
						putArena(ar)
					}
				}
			}
		}
	}
}

// TestRadixPartitionRejectsForeignLeaf mirrors the reference path's
// per-tuple key error: a tuple whose carrier leaf holds no key column
// for the join must fail, naming the leaf — whether it is met first,
// in mid-stream behind tuples of a leaf that has the column, or through
// the scan-identity path.
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
	mixed := append(append([]Tuple(nil), ds.LeafTuples(0)[:10]...), ds.LeafTuples(cIdx)[:10]...)
	for name, c := range map[string]struct {
		in       []Tuple
		scanLeaf int32
	}{
		"first tuple": {ds.LeafTuples(cIdx), -1},
		"mid-stream":  {mixed, -1},
		"scan":        {ds.LeafTuples(cIdx), cIdx},
	} {
		_, err := radixPartition(ar, ds, ab, c.in, c.scanLeaf, 4, payTuples)
		if err == nil || !strings.Contains(err.Error(), "leaf C carries no key") {
			t.Fatalf("%s: partitioning foreign-leaf tuples gave %v, want the leaf named", name, err)
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

// fillTable builds one buildTable of the given kind by hand, with the
// array lengths newJoinTables would carve. A presence table is built
// the way an outer-carrier join builds it: no rows.
func fillTable(t *testing.T, kind tableKind, presence bool, domain int, rows, keys []int32) *buildTable {
	t.Helper()
	m := len(keys)
	bt := &buildTable{kind: kind, leaf: 0, n: int32(m), domain: domain}
	switch {
	case m == 0:
		// No arrays, and never open addressing: see newJoinTables.
		bt.kind = tableRank
		if presence {
			bt.kind = tableBits
		}
	case kind == tableOA && presence:
		bt.setOA(make([]int32, oaSize(m)), nil)
	case kind == tableOA:
		bt.setOA(make([]int32, oaSize(m)), make([]int32, oaSize(m)))
	default:
		bt.words = make([]int32, bitmapWords(domain))
		if kind == tableRank {
			bt.rank = make([]int32, bitmapWords(domain))
			bt.off = make([]int32, min(m, domain)+1)
			bt.rows = make([]int32, m)
		}
	}
	if presence {
		rows = nil
	}
	if err := bt.insert(rows, keys); err != nil {
		t.Fatal(err)
	}
	return bt
}

// refTable is the reference executor's build table: a Go map from key
// to the build tuples carrying it, in input order.
func refTable(rows, keys []int32) map[int32][]Tuple {
	table := make(map[int32][]Tuple, len(keys))
	for i, key := range keys {
		table[key] = append(table[key], Tuple{Leaf: 0, Row: rows[i]})
	}
	return table
}

// refProbe probes a refTable the way the reference executor does and
// returns what the presence arm and the match arm emit.
func refProbe(table map[int32][]Tuple, probe []Tuple, probeKeys []int32) (pres, matches []Tuple) {
	for i, key := range probeKeys {
		if len(table[key]) > 0 {
			pres = append(pres, probe[i])
		}
		matches = append(matches, table[key]...)
	}
	return pres, matches
}

// tableForms is every way a build table is laid out: the three kinds,
// open addressing both with rows and presence-only.
var tableForms = []struct {
	name     string
	kind     tableKind
	presence bool
}{
	{"bits", tableBits, true},
	{"rank", tableRank, false},
	{"oa", tableOA, false},
	{"oa-presence", tableOA, true},
}

// checkAgainstReference builds every table form over one build
// partition and holds each probe's output to the reference map table's:
// presence probes keep the probe tuple on any match, match probes emit
// build tuples in build-input order per key, and a presence-only table
// refuses a match probe.
func checkAgainstReference(t *testing.T, domain int, rows, keys []int32, probe []Tuple, probeKeys []int32) {
	t.Helper()
	wantPres, wantMatch := refProbe(refTable(rows, keys), probe, probeKeys)
	for _, form := range tableForms {
		bt := fillTable(t, form.kind, form.presence, domain, rows, keys)
		pres, err := bt.probePresence(probe, probeKeys, nil)
		if err != nil {
			t.Fatalf("%s: %v", form.name, err)
		}
		if !slices.Equal(pres, wantPres) {
			t.Fatalf("%s presence = %v, want %v", form.name, pres, wantPres)
		}
		matches, err := bt.probeMatches(probeKeys, nil)
		if form.presence {
			if err == nil {
				t.Fatalf("%s: match probe of a presence-only table returned %v, want an error", form.name, matches)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", form.name, err)
		}
		if !slices.Equal(matches, wantMatch) {
			t.Fatalf("%s matches = %v, want %v", form.name, matches, wantMatch)
		}
	}
}

// TestBuildTableLayouts checks every table form on hand-picked build
// sets: duplicate keys, an empty partition, and keys on the bitmap's
// word boundaries; then that the bitmap layouts reject out-of-domain
// keys on insert and on both probes instead of dropping them.
func TestBuildTableLayouts(t *testing.T) {
	probe := make([]Tuple, 70)
	probeKeys := make([]int32, 70)
	for i := range probe {
		probe[i] = Tuple{Leaf: 1, Row: int32(100 + i)}
		probeKeys[i] = int32(i)
	}
	for name, c := range map[string]struct {
		domain int
		keys   []int32
	}{
		// Key 3 twice: matches come out in build input order.
		"duplicates":      {5, []int32{3, 1, 3, 0}},
		"empty partition": {70, nil},
		"word boundaries": {70, []int32{32, 31, 69, 0, 63, 64, 31, 69}},
		"one word":        {32, []int32{31, 0, 31}},
		"last key":        {33, []int32{32, 0, 32}},
	} {
		t.Run(name, func(t *testing.T) {
			rows := make([]int32, len(c.keys))
			for i := range rows {
				rows[i] = int32(10 + i)
			}
			checkAgainstReference(t, c.domain, rows, c.keys, probe[:c.domain], probeKeys[:c.domain])
		})
	}

	// The "duplicates" case spelled out, so the expectation does not
	// rest on the reference helpers alone.
	bt := fillTable(t, tableRank, false, 5, []int32{10, 11, 12, 13}, []int32{3, 1, 3, 0})
	matches, err := bt.probeMatches([]int32{3, 2, 0, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Tuple{{0, 10}, {0, 12}, {0, 13}, {0, 10}, {0, 12}}; !slices.Equal(matches, want) {
		t.Fatalf("rank matches = %v, want %v", matches, want)
	}

	// Out-of-domain keys are dataflow bugs, not silent drops.
	outside := func(err error) bool { return err != nil && strings.Contains(err.Error(), "outside domain [0, 70)") }
	for _, form := range tableForms[:2] {
		for _, bad := range []int32{-1, 70, math.MaxInt32, math.MinInt32} {
			bt := fillTable(t, form.kind, form.presence, 70, []int32{1, 2}, []int32{69, 0})
			if _, err := bt.probePresence(probe[:1], []int32{bad}, nil); !outside(err) {
				t.Fatalf("%s: presence probe of key %d outside [0, 70): %v", form.name, bad, err)
			}
			if _, err := bt.probeMatches([]int32{bad}, nil); !form.presence && !outside(err) {
				t.Fatalf("%s: match probe of key %d outside [0, 70): %v", form.name, bad, err)
			}
			if err := bt.insert([]int32{1, 2}, []int32{5, bad}); !outside(err) {
				t.Fatalf("%s: insert of key %d outside [0, 70): %v", form.name, bad, err)
			}
		}
	}
}

// TestLayoutsMatchReferenceOnGeneratedPartitions is the layout check as
// a property: a join's two sides are generated (uniform and Zipf),
// partitioned at several degrees, and in every partition every table
// form built over the larger side (duplicate keys) and over the smaller
// side (distinct keys) must answer the other side's probe exactly as the
// reference map table does.
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
			big, err := radixPartition(ar, ds, p, ds.LeafTuples(0), -1, n, payTuples)
			if err != nil {
				t.Fatal(err)
			}
			small, err := radixPartition(ar, ds, p, ds.LeafTuples(1), -1, n, payTuples)
			if err != nil {
				t.Fatal(err)
			}
			rowsOf := func(part []Tuple) []int32 {
				rows := make([]int32, len(part))
				for i, tp := range part {
					rows[i] = tp.Row
				}
				return rows
			}
			for k := 0; k < n; k++ {
				checkAgainstReference(t, domain, rowsOf(big.tuples(k)), big.keys(k), small.tuples(k), small.keys(k))
				checkAgainstReference(t, domain, rowsOf(small.tuples(k)), small.keys(k), big.tuples(k), big.keys(k))
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
			bt := fillTable(t, tableOA, true, 1<<16, nil, keys)
			steps := 0
			for j, key := range bt.keys {
				if key >= 0 {
					steps += int((uint32(j) - bt.home(key)) & bt.mask)
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
// every operator at degree 16 — and requires every build table to be a
// bitmap layout: sizing a clone's table against the whole join's key
// domain used to send all of them to open addressing.
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
	if c["engine.tables_oa"] != 0 || c["engine.tables_bits"] == 0 || c["engine.tables_rank"] == 0 ||
		c["engine.tables_bits"]+c["engine.tables_rank"] != 6*16 {
		t.Fatalf("tables: %d bits, %d rank, %d open-addressing; want 96 bitmap tables of both kinds and none open-addressing",
			c["engine.tables_bits"], c["engine.tables_rank"], c["engine.tables_oa"])
	}
}

// TestFailedRunReturnsTablesToArena fails a probe after its build has
// filled the join's tables: the run's cleanup must hand their buffers
// back to the arena with everything else, so a clean run of the same
// plan straight after allocates nothing. The join's build side is its
// larger operand, so its tables are the largest buffer of the run and no
// other free buffer can stand in for them.
func TestFailedRunReturnsTablesToArena(t *testing.T) {
	p := join(leaf("A", 8000), leaf("B", 20000))
	ds := MustGenerate(p, 71)
	s := scheduleFor(t, p, 8)
	arenaAllocs := func(e Engine) int64 {
		met := obs.NewMetrics()
		e.Rec = met
		_, err := e.Run(ds, s)
		if (err != nil) != (e.failClone != nil) {
			t.Fatalf("run error = %v", err)
		}
		return met.Snapshot().Counters["engine.arena_allocs"]
	}
	for i := 0; i < 3; i++ { // warm the idle arena
		arenaAllocs(testEngine())
	}
	if n := arenaAllocs(testEngine()); n != 0 {
		t.Fatalf("warm run allocated %d arena buffers, want 0", n)
	}
	failing := testEngine()
	failing.failClone = failCloneOn(costmodel.Probe, 0)
	arenaAllocs(failing)
	if n := arenaAllocs(testEngine()); n != 0 {
		t.Fatalf("clean run after a failed one allocated %d arena buffers, want 0", n)
	}
}

// TestArenaReuse checks the free-list round trip: a returned buffer
// satisfies the next adequate request, capacities are rounded to powers
// of two, and the reuse/alloc tallies track both outcomes.
func TestArenaReuse(t *testing.T) {
	ar := &arena{}
	b := ar.getTuples(100)
	if len(b) != 100 || cap(b) != 128 {
		t.Fatalf("fresh buffer len %d cap %d, want 100/128", len(b), cap(b))
	}
	ar.putTuples(b)
	c := ar.getTuples(120)
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
// read when the clones started running serially (128 on the 8-join
// chain at P = 8, 104 on the query_e2e shape at P = 16). The clone
// fan-out that preceded it read 378 and 293 at GOMAXPROCS 2 (277 and
// 217 at 1, as AllocsPerRun measures), and the serial mode beside it
// 227 and 179.
func TestWarmRunsStopAllocating(t *testing.T) {
	for _, c := range []struct {
		name  string
		plan  *query.PlanNode
		sites int
		max   float64
	}{
		{"chain8", chainPlan([]int{5000, 2000, 7000, 1200, 6400, 2800, 9000, 3300, 7500}), 8, 160},
		{"e2e", e2ePlan(), 16, 130},
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
