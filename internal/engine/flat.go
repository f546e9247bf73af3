// Flat, cache-friendly operator state: two-pass radix partitioning
// into one contiguous backing array, and dense flat hash tables that
// exploit the generator's key discipline (smaller-side keys are
// distinct 0..s−1) instead of Go maps. The rewritten data path keeps
// every Report field byte-identical to the reference (pre-flat)
// executor: partition contents and intra-partition order match the
// old append-per-tuple map partitioning exactly, and every table
// layout yields probe matches in the same order the map tables did.
package engine

import (
	"fmt"
	"math/bits"

	"mdrs/internal/query"
)

// hashMul is Knuth's multiplicative constant, shared by partitionOf
// and the open-addressing table.
const hashMul = 2654435761

// radixParts is one radix partitioning: n contiguous runs of a single
// arena backing plus the co-scattered key of every tuple, so clone
// bodies index keys directly and never re-resolve the join's column
// slot or re-hash a tuple.
type radixParts struct {
	tuples  [][]Tuple
	keys    [][]int32
	backing []Tuple
	keyback []int32
}

// release returns the partitioning's arena buffers.
func (rp *radixParts) release(ar *arena) {
	ar.putTuples(rp.backing)
	ar.putInt32(rp.keyback)
	rp.backing, rp.keyback = nil, nil
	rp.tuples, rp.keys = nil, nil
}

// radixPartition hash-partitions tuples on their key for the given
// join into n buckets — the exchange (repartitioning) operator of
// assumption A5 — in two passes: count per partition, then scatter
// into one preallocated backing array. The join's key column is
// resolved once per leaf (an array index per tuple) instead of through
// the per-tuple ds.Key map lookup the reference path pays. Partition
// assignment (partitionOf) and intra-partition order (input order) are
// identical to the reference path's append-per-tuple map partitioning.
func radixPartition(ar *arena, ds *Dataset, join *query.PlanNode, in []Tuple, n int) (radixParts, error) {
	jc := ds.joins[join]
	if jc == nil {
		return radixParts{}, fmt.Errorf("dataset carries no key columns for the requested join")
	}
	m := len(in)
	keyIn := ar.getInt32(m)
	pids := ar.getInt32(m)
	counts := ar.getInt32(n)
	for k := range counts {
		counts[k] = 0
	}
	for i, t := range in {
		col := jc.cols[t.Leaf]
		if col == nil {
			ar.putInt32(keyIn)
			ar.putInt32(pids)
			ar.putInt32(counts)
			return radixParts{}, fmt.Errorf("leaf %s carries no key for the requested join",
				ds.leaves[t.Leaf].rel.Name)
		}
		key := col[t.Row]
		keyIn[i] = key
		p := int32(partitionOf(key, n))
		pids[i] = p
		counts[p]++
	}

	starts := ar.getInt32(n + 1)
	sum := int32(0)
	for k := 0; k < n; k++ {
		starts[k] = sum
		sum += counts[k]
		counts[k] = starts[k] // reuse as scatter cursors
	}
	starts[n] = sum

	rp := radixParts{
		backing: ar.getTuples(m),
		keyback: ar.getInt32(m),
		tuples:  make([][]Tuple, n),
		keys:    make([][]int32, n),
	}
	for i, t := range in {
		p := pids[i]
		pos := counts[p]
		counts[p] = pos + 1
		rp.backing[pos] = t
		rp.keyback[pos] = keyIn[i]
	}
	for k := 0; k < n; k++ {
		rp.tuples[k] = rp.backing[starts[k]:starts[k+1]]
		rp.keys[k] = rp.keyback[starts[k]:starts[k+1]]
	}
	ar.putInt32(keyIn)
	ar.putInt32(pids)
	ar.putInt32(counts)
	ar.putInt32(starts)
	return rp, nil
}

// tableKind selects one of the three build-table layouts.
type tableKind uint8

const (
	// tableDirect is a direct-indexed array over the key domain:
	// slot[key] holds the matching build row or -1 — the match slot and
	// the presence bitmap in one load. Used when the build side carries
	// distinct keys (the join's smaller side, i.e. the outer operand is
	// the carrier) and the domain is dense relative to the partition.
	tableDirect tableKind = iota
	// tableCSR is a dense group-by-key layout for duplicate build keys
	// (the build side is the join's larger operand): off[] offsets into
	// rows[], rows grouped by key in partition input order.
	tableCSR
	// tableOA is the open-addressing (key,row) multimap fallback when
	// the domain is too sparse for a dense layout: linear probing, no
	// deletions, equal keys collected in insertion order.
	tableOA
)

// buildTable is one clone's hash table in flat form. All build-side
// tuples of one partition share a carrier leaf, so the table stores
// bare row numbers and reconstitutes Tuples with the recorded leaf.
type buildTable struct {
	kind tableKind
	leaf int32
	n    int32 // entries (build partition size)

	// tableDirect
	slot []int32
	// tableCSR: after the cursor-advancing scatter, off[key] is the
	// END of key's row group and the start is off[key-1] (0 for key 0).
	off  []int32
	rows []int32
	// tableOA: key -1 marks an empty slot (generated keys are >= 0);
	// len(keys) is 1<<(32-shift) and mask is one less.
	keys  []int32
	vals  []int32
	mask  uint32
	shift uint32

	domain int
}

// denseOK reports whether a dense O(domain) layout is worth the
// footprint for a partition of m build tuples.
func denseOK(domain, m int) bool {
	return domain <= 8*m+1024
}

// joinTables is the per-clone flat tables of one join, alive from the
// build until its probe consumes (and releases) them.
type joinTables struct {
	clones []buildTable
}

// newJoinTables sizes one flat table per clone on the run's
// coordinating goroutine (clone bodies only fill their own arrays).
// outerCarrier selects the layout family: when the outer (probe-side)
// operand is the carrier, the build side is the join's smaller operand
// and carries distinct keys, so presence is all a probe needs
// (tableDirect); otherwise every build tuple must be emitted per match
// (tableCSR). Sparse domains fall back to open addressing either way.
func newJoinTables(ar *arena, ds *Dataset, join *query.PlanNode, rp radixParts, n int, outerCarrier bool) *joinTables {
	jc := ds.joins[join]
	leaf := int32(-1)
	for k := range rp.tuples {
		if len(rp.tuples[k]) > 0 {
			leaf = rp.tuples[k][0].Leaf
			break
		}
	}
	jt := &joinTables{clones: make([]buildTable, n)}
	for k := 0; k < n; k++ {
		m := len(rp.tuples[k])
		t := &jt.clones[k]
		t.leaf = leaf
		t.n = int32(m)
		t.domain = jc.domain
		if m == 0 {
			t.kind = tableDirect // nil slot; probes find nothing
			continue
		}
		switch {
		case outerCarrier && denseOK(jc.domain, m):
			t.kind = tableDirect
			t.slot = ar.getInt32(jc.domain)
		case !outerCarrier && denseOK(jc.domain, m):
			t.kind = tableCSR
			t.off = ar.getInt32(jc.domain + 1)
			t.rows = ar.getInt32(m)
		default:
			size := oaSize(m)
			t.setOA(ar.getInt32(size), ar.getInt32(size))
		}
	}
	return jt
}

// release returns every clone's arrays to the arena.
func (jt *joinTables) release(ar *arena) {
	for k := range jt.clones {
		t := &jt.clones[k]
		if t.slot != nil {
			ar.putInt32(t.slot)
		}
		if t.off != nil {
			ar.putInt32(t.off)
		}
		if t.rows != nil {
			ar.putInt32(t.rows)
		}
		if t.keys != nil {
			ar.putInt32(t.keys)
		}
		if t.vals != nil {
			ar.putInt32(t.vals)
		}
		jt.clones[k] = buildTable{}
	}
}

// oaSize is the slot count of a tableOA over m build tuples: a power of
// two that keeps the load at or below one half.
func oaSize(m int) int {
	return max(8, roundUpPow2(2*m))
}

// setOA makes t an open-addressing table over the given slot arrays,
// whose common length is a power of two.
func (t *buildTable) setOA(keys, vals []int32) {
	t.kind = tableOA
	t.keys, t.vals = keys, vals
	t.mask = uint32(len(keys) - 1)
	t.shift = uint32(32 - bits.TrailingZeros32(uint32(len(keys))))
}

// home is a key's first slot in a tableOA: the top log2(size) bits of
// its multiplicative hash (Fibonacci hashing, Knuth 6.4). The low bits
// will not do: partitionOf chose this partition by the same hash mod n,
// so at a power-of-two degree every key here agrees on its low log2(n)
// bits and hash&mask reaches only one home slot in n.
func (t *buildTable) home(key int32) uint32 {
	return (uint32(key) * hashMul) >> t.shift
}

// insert fills the table from one build partition (run inside the
// clone body; the arrays were carved on the coordinator). part and
// keys are the partition's co-scattered tuples and join keys.
func (t *buildTable) insert(part []Tuple, keys []int32) error {
	switch t.kind {
	case tableDirect:
		if t.slot == nil {
			return nil // empty partition
		}
		for i := range t.slot {
			t.slot[i] = -1
		}
		for i, key := range keys {
			if key < 0 || int(key) >= t.domain {
				return fmt.Errorf("build key %d outside domain [0, %d)", key, t.domain)
			}
			t.slot[key] = part[i].Row
		}
	case tableCSR:
		off := t.off
		for i := range off {
			off[i] = 0
		}
		for _, key := range keys {
			if key < 0 || int(key) >= t.domain {
				return fmt.Errorf("build key %d outside domain [0, %d)", key, t.domain)
			}
			off[key]++
		}
		sum := int32(0)
		for k := 0; k < t.domain; k++ {
			c := off[k]
			off[k] = sum
			sum += c
		}
		off[t.domain] = sum
		for i, key := range keys {
			pos := off[key]
			off[key] = pos + 1
			t.rows[pos] = part[i].Row
		}
		// off[key] is now the END of key's group; start is off[key-1].
	case tableOA:
		for i := range t.keys {
			t.keys[i] = -1
		}
		for i, key := range keys {
			j := t.home(key)
			for t.keys[j] != -1 {
				j = (j + 1) & t.mask
			}
			t.keys[j] = key
			t.vals[j] = part[i].Row
		}
	}
	return nil
}

// probePresence appends each probe tuple whose key has at least one
// build match — the outer-carrier arm, where inner keys are unique and
// the outer tuple's identity carries on. Matches the reference path's
// "len(matches) > 0" semantics exactly.
func (t *buildTable) probePresence(part []Tuple, keys []int32, res []Tuple) ([]Tuple, error) {
	if t.n == 0 {
		return res, nil
	}
	switch t.kind {
	case tableDirect:
		for i, key := range keys {
			if key < 0 || int(key) >= t.domain {
				return res, fmt.Errorf("probe key %d outside domain [0, %d)", key, t.domain)
			}
			if t.slot[key] >= 0 {
				res = append(res, part[i])
			}
		}
	case tableCSR:
		for i, key := range keys {
			if key < 0 || int(key) >= t.domain {
				return res, fmt.Errorf("probe key %d outside domain [0, %d)", key, t.domain)
			}
			lo := int32(0)
			if key > 0 {
				lo = t.off[key-1]
			}
			if t.off[key] > lo {
				res = append(res, part[i])
			}
		}
	case tableOA:
		for i, key := range keys {
			j := t.home(key)
			for t.keys[j] != -1 {
				if t.keys[j] == key {
					res = append(res, part[i])
					break
				}
				j = (j + 1) & t.mask
			}
		}
	}
	return res, nil
}

// probeMatches appends every matching build tuple per probe key — the
// inner-carrier arm. Match order per key is the build partition's
// input order, exactly as the reference path's map-append produced.
func (t *buildTable) probeMatches(keys []int32, res []Tuple) ([]Tuple, error) {
	if t.n == 0 {
		return res, nil
	}
	switch t.kind {
	case tableDirect:
		for _, key := range keys {
			if key < 0 || int(key) >= t.domain {
				return res, fmt.Errorf("probe key %d outside domain [0, %d)", key, t.domain)
			}
			if r := t.slot[key]; r >= 0 {
				res = append(res, Tuple{Leaf: t.leaf, Row: r})
			}
		}
	case tableCSR:
		for _, key := range keys {
			if key < 0 || int(key) >= t.domain {
				return res, fmt.Errorf("probe key %d outside domain [0, %d)", key, t.domain)
			}
			lo := int32(0)
			if key > 0 {
				lo = t.off[key-1]
			}
			for _, r := range t.rows[lo:t.off[key]] {
				res = append(res, Tuple{Leaf: t.leaf, Row: r})
			}
		}
	case tableOA:
		for _, key := range keys {
			j := t.home(key)
			for t.keys[j] != -1 {
				if t.keys[j] == key {
					res = append(res, Tuple{Leaf: t.leaf, Row: t.vals[j]})
				}
				j = (j + 1) & t.mask
			}
		}
	}
	return res, nil
}
