// Flat, cache-friendly operator state: two-pass radix partitioning
// that scatters only what the consumer reads, and per-clone build tables
// sized to the partition instead of the join's key domain — a presence
// bitmap, a bitmap-ranked CSR, or an open-addressing fallback — in
// place of Go maps. The data path keeps every Report field
// byte-identical to the reference (pre-flat) executor: partition
// contents and intra-partition order match the old append-per-tuple map
// partitioning exactly, and every table layout yields probe matches in
// the same order the map tables did.
package engine

import (
	"fmt"
	"math/bits"

	"mdrs/internal/query"
)

// hashMul is Knuth's multiplicative constant, shared by the partition
// hash and the open-addressing table.
const hashMul = 2654435761

// payload names what radixPartition scatters beside the join keys: the
// exchange ships only the bytes its consumer reads.
type payload uint8

const (
	// payKeys scatters the keys alone: an outer-carrier build keeps only
	// presence, and an inner-carrier probe emits build tuples, never its
	// own.
	payKeys payload = iota
	// payRows adds the bare row numbers: an inner-carrier build stores
	// them and reconstitutes Tuples with the stream's one carrier leaf.
	payRows
	// payTuples adds the tuples themselves: an outer-carrier probe passes
	// the matching ones on.
	payTuples
)

// radixParts is one radix partitioning: partition k is the window
// [starts[k], starts[k+1]) of each co-scattered arena backing the
// payload asked for, so clone bodies index keys directly and never
// re-resolve the join's column slot or re-hash a tuple.
type radixParts struct {
	starts  []int32 // n+1 partition boundaries
	keyback []int32
	rowback []int32 // payRows only
	backing []Tuple // payTuples only
	// leaf is the stream's carrier leaf (its first tuple's), -1 when the
	// stream is empty.
	leaf int32
}

func (rp *radixParts) size(k int) int       { return int(rp.starts[k+1] - rp.starts[k]) }
func (rp *radixParts) keys(k int) []int32   { return rp.keyback[rp.starts[k]:rp.starts[k+1]] }
func (rp *radixParts) rows(k int) []int32   { return rp.rowback[rp.starts[k]:rp.starts[k+1]] }
func (rp *radixParts) tuples(k int) []Tuple { return rp.backing[rp.starts[k]:rp.starts[k+1]] }

// release returns the partitioning's arena buffers.
func (rp *radixParts) release(ar *arena) {
	ar.putInt32(rp.starts)
	ar.putInt32(rp.keyback)
	ar.putInt32(rp.rowback)
	ar.putTuples(rp.backing)
	*rp = radixParts{}
}

// reciprocalOf returns the multiplier with which partitionBy replaces
// the hardware divide of h % n (Lemire, Kaser and Kurz, "Faster
// remainder by direct computation", 2019): exact for every 32-bit h
// and n.
func reciprocalOf(n int) uint64 { return ^uint64(0)/uint64(n) + 1 }

// partitionBy maps a join key to a partition in [0, n) with a
// multiplicative mix so that structured key sets still spread evenly:
// (key·hashMul mod 2³²) mod n, the mod taken by recip = reciprocalOf(n).
func partitionBy(key int32, recip, n uint64) int32 {
	h := uint32(key) * hashMul
	hi, _ := bits.Mul64(recip*uint64(h), n)
	return int32(hi)
}

// radixPartition hash-partitions tuples on their key for the given
// join into n buckets — the exchange (repartitioning) operator of
// assumption A5 — in two passes: count per partition, then scatter the
// keys and the requested payload into preallocated backing arrays.
// scanLeaf >= 0 says that in is that leaf's identity slice (the
// producer is a Scan), so the keys are the leaf's column in place: no
// gather, and in is never read. Otherwise the key column is resolved
// once per run of equal leaves (an array index per tuple) instead of
// through the per-tuple ds.Key map lookup the reference path pays.
// Partition assignment and intra-partition order (input order) are
// identical to the reference path's append-per-tuple map partitioning.
func radixPartition(ar *arena, ds *Dataset, join *query.PlanNode, in []Tuple,
	scanLeaf int32, n int, pay payload) (radixParts, error) {

	jc := ds.joins[join]
	if jc == nil {
		return radixParts{}, fmt.Errorf("dataset carries no key columns for the requested join")
	}
	m := len(in)
	pids := ar.getInt32(m)
	counts := ar.getInt32(n)
	clear(counts)
	recip, un := reciprocalOf(n), uint64(n)

	rp := radixParts{leaf: -1}
	if m > 0 {
		rp.leaf = in[0].Leaf
	}
	var keyIn, gathered []int32
	if scanLeaf >= 0 && m > 0 {
		if keyIn = jc.cols[scanLeaf]; keyIn == nil {
			ar.putInt32(pids)
			ar.putInt32(counts)
			return radixParts{}, foreignLeaf(ds, scanLeaf)
		}
		for i, key := range keyIn[:m] {
			p := partitionBy(key, recip, un)
			pids[i] = p
			counts[p]++
		}
	} else {
		gathered = ar.getInt32(m)
		keyIn = gathered
		leaf, col := int32(-1), []int32(nil)
		for i, t := range in {
			if t.Leaf != leaf {
				if col = jc.cols[t.Leaf]; col == nil {
					ar.putInt32(gathered)
					ar.putInt32(pids)
					ar.putInt32(counts)
					return radixParts{}, foreignLeaf(ds, t.Leaf)
				}
				leaf = t.Leaf
			}
			key := col[t.Row]
			keyIn[i] = key
			p := partitionBy(key, recip, un)
			pids[i] = p
			counts[p]++
		}
	}

	rp.starts = ar.getInt32(n + 1)
	sum := int32(0)
	for k := 0; k < n; k++ {
		rp.starts[k] = sum
		sum += counts[k]
		counts[k] = rp.starts[k] // reuse as scatter cursors
	}
	rp.starts[n] = sum

	rp.keyback = ar.getInt32(m)
	switch pay {
	case payKeys:
		for i, p := range pids {
			pos := counts[p]
			counts[p] = pos + 1
			rp.keyback[pos] = keyIn[i]
		}
	case payRows:
		rp.rowback = ar.getInt32(m)
		for i, p := range pids {
			pos := counts[p]
			counts[p] = pos + 1
			rp.keyback[pos] = keyIn[i]
			if scanLeaf >= 0 {
				rp.rowback[pos] = int32(i)
			} else {
				rp.rowback[pos] = in[i].Row
			}
		}
	case payTuples:
		rp.backing = ar.getTuples(m)
		for i, p := range pids {
			pos := counts[p]
			counts[p] = pos + 1
			rp.keyback[pos] = keyIn[i]
			if scanLeaf >= 0 {
				rp.backing[pos] = Tuple{Leaf: scanLeaf, Row: int32(i)}
			} else {
				rp.backing[pos] = in[i]
			}
		}
	}
	ar.putInt32(gathered)
	ar.putInt32(pids)
	ar.putInt32(counts)
	return rp, nil
}

// foreignLeaf is the error for a tuple whose carrier leaf holds no key
// column for the join being partitioned.
func foreignLeaf(ds *Dataset, leaf int32) error {
	return fmt.Errorf("leaf %s carries no key for the requested join", ds.leaves[leaf].rel.Name)
}

// tableKind selects one of the three build-table layouts.
type tableKind uint8

const (
	// tableBits is a presence bitmap over the key domain, one bit per
	// key in domain/32 words: all an outer-carrier probe asks of its
	// build side (the join's smaller operand, distinct keys) is whether
	// the key is there — a semi-join. It stores no rows, so its only
	// probe is probePresence.
	tableBits tableKind = iota
	// tableRank is the same bitmap plus a per-word prefix popcount, which
	// ranks a key among the partition's own distinct keys, and a CSR
	// (off, rows) over that rank: rows grouped by key in partition input
	// order, for the duplicate build keys of an inner-carrier join. The
	// CSR is sized to the partition, not to the domain.
	tableRank
	// tableOA is the open-addressing (key,row) multimap fallback when
	// even a bit per domain key dwarfs the partition: linear probing, no
	// deletions, equal keys collected in insertion order. Built without
	// rows (vals nil) it answers presence only.
	tableOA
)

// buildTable is one clone's hash table in flat form. All build-side
// tuples of one partition share a carrier leaf, so the table stores
// bare row numbers and reconstitutes Tuples with the recorded leaf.
type buildTable struct {
	kind tableKind
	leaf int32
	n    int32 // entries (build partition size)

	// tableBits, tableRank: bit key&31 of words[key>>5] is set when key
	// is present.
	words []int32
	// tableRank: rank[w] counts the set bits of words[:w]; the rows of
	// the key of rank r are rows[off[r]:off[r+1]].
	rank []int32
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

// bitmapOK reports whether a bit per domain key is worth the footprint
// for a partition of m build tuples: the one rule that picks between
// the bitmap layouts and open addressing.
func bitmapOK(domain, m int) bool {
	return domain/32 <= 8*m+1024
}

// bitmapWords is the word count of a bitmap over [0, domain).
func bitmapWords(domain int) int { return (domain + 31) / 32 }

// joinTables is the per-clone flat tables of one join, alive from the
// build until its probe consumes (and releases) them. Every clone's
// arrays are windows of one arena slab.
type joinTables struct {
	clones []buildTable
	slab   []int32
}

// newJoinTables sizes one flat table per clone on the run's
// coordinating goroutine (clone bodies only fill their own arrays).
// outerCarrier selects the layout family: when the outer (probe-side)
// operand is the carrier, presence is all a probe needs (tableBits);
// otherwise every build tuple must be emitted per match (tableRank).
// Sparse domains fall back to open addressing either way.
func newJoinTables(ar *arena, ds *Dataset, join *query.PlanNode, rp *radixParts, n int, outerCarrier bool) *joinTables {
	domain := ds.joins[join].domain
	nw := bitmapWords(domain)
	// layout picks a partition's table kind and the lengths of its (up
	// to four) arrays, in the order the struct declares them.
	bitmap := tableRank
	if outerCarrier {
		bitmap = tableBits
	}
	layout := func(m int) (tableKind, [4]int) {
		switch {
		case m == 0:
			return bitmap, [4]int{} // no arrays; probes find nothing
		case !bitmapOK(domain, m) && outerCarrier:
			return tableOA, [4]int{oaSize(m)}
		case !bitmapOK(domain, m):
			return tableOA, [4]int{oaSize(m), oaSize(m)}
		case outerCarrier:
			return tableBits, [4]int{nw}
		default:
			return tableRank, [4]int{nw, nw, min(m, domain) + 1, m}
		}
	}
	total := 0
	for k := 0; k < n; k++ {
		_, sz := layout(rp.size(k))
		total += sz[0] + sz[1] + sz[2] + sz[3]
	}
	jt := &joinTables{clones: make([]buildTable, n), slab: ar.getInt32(total)}
	rest := jt.slab
	carve := func(sz int) []int32 {
		if sz == 0 {
			return nil
		}
		b := rest[:sz:sz]
		rest = rest[sz:]
		return b
	}
	for k := 0; k < n; k++ {
		m := rp.size(k)
		kind, sz := layout(m)
		t := &jt.clones[k]
		*t = buildTable{kind: kind, leaf: rp.leaf, n: int32(m), domain: domain}
		if kind == tableOA {
			t.setOA(carve(sz[0]), carve(sz[1]))
			continue
		}
		t.words, t.rank, t.off, t.rows = carve(sz[0]), carve(sz[1]), carve(sz[2]), carve(sz[3])
	}
	return jt
}

// release returns the tables' slab to the arena.
func (jt *joinTables) release(ar *arena) {
	ar.putInt32(jt.slab)
	jt.slab = nil
	clear(jt.clones)
}

// oaSize is the slot count of a tableOA over m build tuples: a power of
// two that keeps the load at or below one half.
func oaSize(m int) int {
	return max(8, roundUpPow2(2*m))
}

// setOA makes t an open-addressing table over the given slot arrays,
// whose common length is a power of two; nil vals makes it
// presence-only.
func (t *buildTable) setOA(keys, vals []int32) {
	t.kind = tableOA
	t.keys, t.vals = keys, vals
	t.mask = uint32(len(keys) - 1)
	t.shift = uint32(32 - bits.TrailingZeros32(uint32(len(keys))))
}

// home is a key's first slot in a tableOA: the top log2(size) bits of
// its multiplicative hash (Fibonacci hashing, Knuth 6.4). The low bits
// will not do: the exchange chose this partition by the same hash mod n,
// so at a power-of-two degree every key here agrees on its low log2(n)
// bits and hash&mask reaches only one home slot in n.
func (t *buildTable) home(key int32) uint32 {
	return (uint32(key) * hashMul) >> t.shift
}

// presenceOnly reports whether the table was built without rows, so
// that only probePresence can be answered from it.
func (t *buildTable) presenceOnly() bool {
	return t.kind == tableBits || t.kind == tableOA && t.vals == nil
}

// outside reports whether key lies outside the table's domain — a
// dataflow bug, not a miss.
func (t *buildTable) outside(key int32) bool {
	return uint(key) >= uint(t.domain)
}

// insert fills the table from one build partition (run inside the
// clone body; the arrays were carved on the coordinator). keys are the
// partition's co-scattered join keys and rows its row numbers, which a
// presence-only table does not read.
func (t *buildTable) insert(rows, keys []int32) error {
	if t.n == 0 {
		return nil // empty partition
	}
	switch t.kind {
	case tableBits, tableRank:
		words := t.words
		clear(words)
		for _, key := range keys {
			if t.outside(key) {
				return fmt.Errorf("build key %d outside domain [0, %d)", key, t.domain)
			}
			words[key>>5] |= 1 << (key & 31)
		}
		if t.kind == tableBits {
			return nil
		}
		sum := int32(0)
		for w, word := range words {
			t.rank[w] = sum
			sum += int32(bits.OnesCount32(uint32(word)))
		}
		// Count into off[r+1], turn the counts into group starts, then
		// scatter with off[r+1] as key r's cursor: it ends at the END of
		// the group, which is the start of the next, and off[0] stays 0.
		off := t.off[:sum+1]
		clear(off)
		for _, key := range keys {
			off[t.rankOf(key)+1]++
		}
		sum = 0
		for r := 1; r < len(off); r++ {
			c := off[r]
			off[r] = sum
			sum += c
		}
		for i, key := range keys {
			r := t.rankOf(key) + 1
			pos := off[r]
			off[r] = pos + 1
			t.rows[pos] = rows[i]
		}
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
			if t.vals != nil {
				t.vals[j] = rows[i]
			}
		}
	}
	return nil
}

// has reports whether an in-domain key is in the bitmap.
func (t *buildTable) has(key int32) bool {
	return uint32(t.words[key>>5])>>(key&31)&1 != 0
}

// rankOf is the number of distinct partition keys below a present key:
// the set bits of the words before its own, plus those below it there.
func (t *buildTable) rankOf(key int32) int32 {
	below := uint32(t.words[key>>5]) & (1<<(key&31) - 1)
	return t.rank[key>>5] + int32(bits.OnesCount32(below))
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
	case tableBits, tableRank:
		for i, key := range keys {
			if t.outside(key) {
				return res, fmt.Errorf("probe key %d outside domain [0, %d)", key, t.domain)
			}
			if t.has(key) {
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
// input order, exactly as the reference path's map-append produced. A
// presence-only table holds no rows to emit, which is an error, not an
// empty result.
func (t *buildTable) probeMatches(keys []int32, res []Tuple) ([]Tuple, error) {
	if t.presenceOnly() {
		return res, fmt.Errorf("match probe of a presence-only build table")
	}
	if t.n == 0 {
		return res, nil
	}
	switch t.kind {
	case tableRank:
		for _, key := range keys {
			if t.outside(key) {
				return res, fmt.Errorf("probe key %d outside domain [0, %d)", key, t.domain)
			}
			if !t.has(key) {
				continue
			}
			r := t.rankOf(key)
			for _, row := range t.rows[t.off[r]:t.off[r+1]] {
				res = append(res, Tuple{Leaf: t.leaf, Row: row})
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
