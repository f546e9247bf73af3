package engine

import (
	"reflect"
	"testing"
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
// partition contents in identical order, for uniform and skewed keys
// and for both sides of a join.
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
				ar := arenaPool.Get().(*arena)
				rp, err := radixPartition(ar, ds, p, in, n)
				if err != nil {
					t.Fatal(err)
				}
				for k := 0; k < n; k++ {
					got := rp.tuples[k]
					if len(got) == 0 && len(want[k]) == 0 {
						continue
					}
					if !reflect.DeepEqual([]Tuple(got), want[k]) {
						t.Fatalf("skew=%g leaf=%d n=%d partition %d diverges", skew, leafIdx, n, k)
					}
					for i, tp := range got {
						key, err := ds.Key(tp, p)
						if err != nil {
							t.Fatal(err)
						}
						if rp.keys[k][i] != key {
							t.Fatalf("co-scattered key %d of partition %d = %d, want %d",
								i, k, rp.keys[k][i], key)
						}
					}
				}
				rp.release(ar)
				arenaPool.Put(ar)
			}
		}
	}
}

// TestRadixPartitionRejectsForeignLeaf mirrors the reference path's
// per-tuple key error: a tuple whose carrier leaf holds no key column
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
	ar := arenaPool.Get().(*arena)
	defer arenaPool.Put(ar)
	if _, err := radixPartition(ar, ds, ab, ds.LeafTuples(cIdx), 4); err == nil {
		t.Fatal("partitioning foreign-leaf tuples succeeded")
	}
}

// fillTable builds one buildTable of the given kind by hand, sized the
// way newJoinTables would size it.
func fillTable(t *testing.T, kind tableKind, domain int, part []Tuple, keys []int32) *buildTable {
	t.Helper()
	bt := &buildTable{kind: kind, leaf: 0, n: int32(len(part)), domain: domain}
	switch kind {
	case tableDirect:
		bt.slot = make([]int32, domain)
	case tableCSR:
		bt.off = make([]int32, domain+1)
		bt.rows = make([]int32, len(part))
	case tableOA:
		size := oaSize(len(part))
		bt.setOA(make([]int32, size), make([]int32, size))
	}
	if err := bt.insert(part, keys); err != nil {
		t.Fatal(err)
	}
	return bt
}

// TestBuildTableLayouts checks all three layouts against the same tiny
// build set: presence probes keep the probe tuple on any match, and
// match probes emit build tuples in build-input order per key.
func TestBuildTableLayouts(t *testing.T) {
	// Build rows 10,11,12,13 carrying keys 3,1,3,0 (key 3 duplicated —
	// only CSR and OA represent duplicates; direct is only used when
	// the generator guarantees distinct keys).
	part := []Tuple{{0, 10}, {0, 11}, {0, 12}, {0, 13}}
	keys := []int32{3, 1, 3, 0}
	probe := []Tuple{{1, 0}, {1, 1}, {1, 2}, {1, 3}}
	probeKeys := []int32{3, 2, 0, 3}

	for _, kind := range []tableKind{tableCSR, tableOA} {
		bt := fillTable(t, kind, 5, part, keys)
		pres, err := bt.probePresence(probe, probeKeys, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantPres := []Tuple{{1, 0}, {1, 2}, {1, 3}}
		if !reflect.DeepEqual(pres, wantPres) {
			t.Fatalf("kind %d presence = %v, want %v", kind, pres, wantPres)
		}
		matches, err := bt.probeMatches(probeKeys, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Key 3 matches rows 10 then 12 (build input order), twice.
		wantMatch := []Tuple{{0, 10}, {0, 12}, {0, 13}, {0, 10}, {0, 12}}
		if !reflect.DeepEqual(matches, wantMatch) {
			t.Fatalf("kind %d matches = %v, want %v", kind, matches, wantMatch)
		}
	}

	// Direct with distinct keys: rows 10,11,12,13 carry keys 3,1,2,0.
	bt := fillTable(t, tableDirect, 5, part, []int32{3, 1, 2, 0})
	pres, err := bt.probePresence(probe, []int32{3, 4, 0, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantPres := []Tuple{{1, 0}, {1, 2}, {1, 3}}
	if !reflect.DeepEqual(pres, wantPres) {
		t.Fatalf("direct presence = %v, want %v", pres, wantPres)
	}
	matches, err := bt.probeMatches([]int32{3, 4, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantMatch := []Tuple{{0, 10}, {0, 13}}
	if !reflect.DeepEqual(matches, wantMatch) {
		t.Fatalf("direct matches = %v, want %v", matches, wantMatch)
	}

	// Out-of-domain keys are dataflow bugs, not silent drops.
	if _, err := bt.probePresence(probe[:1], []int32{9}, nil); err == nil {
		t.Fatal("out-of-domain probe key accepted")
	}
	if err := bt.insert(part[:1], []int32{-1}); err == nil {
		t.Fatal("negative build key accepted")
	}
}

// TestOpenAddressingSpreadsWithinPartition bounds the mean distance of
// an entry from its home slot when the table holds one partition of a
// run of sequential keys at a power-of-two degree. partitionOf picked
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
			bt := fillTable(t, tableOA, 1<<16, make([]Tuple, len(keys)), keys)
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

// TestDenseOK pins the dense-layout threshold.
func TestDenseOK(t *testing.T) {
	if !denseOK(1024, 0) {
		t.Fatal("small domains should always be dense")
	}
	if !denseOK(8*1000+1024, 1000) {
		t.Fatal("boundary domain should be dense")
	}
	if denseOK(8*1000+1025, 1000) {
		t.Fatal("past-boundary domain should fall back to open addressing")
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

// TestWarmRunsStopAllocating is the arena's end-to-end payoff: after a
// cold run primes the pooled buffers, repeat runs of an 8-join plan
// allocate a small, plan-size-independent amount.
func TestWarmRunsStopAllocating(t *testing.T) {
	p := chainPlan([]int{5000, 2000, 7000, 1200, 6400, 2800, 9000, 3300, 7500})
	ds := MustGenerate(p, 71)
	s := scheduleFor(t, p, 8)
	eng := testEngine(false)
	for i := 0; i < 3; i++ { // prime the arena pool
		if _, err := eng.Run(ds, s); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := eng.Run(ds, s); err != nil {
			t.Fatal(err)
		}
	})
	// The reference path allocates O(tuples) per operator — hundreds of
	// thousands of allocations for this plan. Warm flat runs must be
	// orders of magnitude below that; the remaining allocations are the
	// Report itself and fixed per-operator bookkeeping.
	t.Logf("warm allocs/run = %.0f", allocs)
	if allocs > 2000 {
		t.Fatalf("warm run allocates %.0f times, want <= 2000", allocs)
	}
}
