// Flat, cache-friendly operator state: two-pass radix partitioning
// that scatters join keys alone, and per-clone key sets sized to the
// partition instead of the join's key domain — a presence bitmap or an
// open-addressing fallback — in place of Go maps. A stream between
// operators is one whole carrier leaf: every join runs as a semi-join
// of its carrier, a clone fills a set with its partition of the smaller
// operand's keys, which must be distinct, and checks that the set holds
// every key of its carrier partition. A carrier key the set lacks is a
// miss, and any miss fails the join's cardinality check, so on a run
// that passes each clone emits its whole carrier partition and the
// probe's output is its carrier's input stream. By induction every
// stream is one leaf's rows 0..n-1, and an exchange reads the join's
// key column in place. Partition key multisets match the reference
// (pre-flat) executor's exactly and each clone emits as many rows as it
// did, so every Report field is byte-identical; the order of rows
// inside an intermediate stream is not kept, and no Report field
// depends on it.
package engine

import (
	"fmt"
	"math/bits"

	"mdrs/internal/query"
)

// hashMul is Knuth's multiplicative constant, shared by the partition
// hash and the open-addressing set.
const hashMul = 2654435761

// stream is an operator's output: the whole of its one carrier leaf,
// rows 0..n-1. A Scan's stream is its leaf; a Probe or a Store passes
// its carrier's input stream on.
type stream struct {
	leaf int32
	n    int // the stream's length, the leaf's cardinality
}

// radixParts is one radix partitioning of a stream's join keys:
// partition k is the window [starts[k], starts[k+1]) of keyback, so
// clone bodies index keys directly and never re-resolve the join's
// column or re-hash a row.
type radixParts struct {
	starts  []int32 // n+1 partition boundaries
	keyback []int32
}

func (rp *radixParts) size(k int) int     { return int(rp.starts[k+1] - rp.starts[k]) }
func (rp *radixParts) keys(k int) []int32 { return rp.keyback[rp.starts[k]:rp.starts[k+1]] }

// release returns the partitioning's arena buffers.
func (rp *radixParts) release(ar *arena) {
	ar.putInt32(rp.starts)
	ar.putInt32(rp.keyback)
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

// radixPartition hash-partitions a stream's keys for the given join
// into n buckets — the exchange (repartitioning) operator of assumption
// A5, which ships the join attribute alone — in two passes: count per
// partition, then scatter the keys into one preallocated backing array.
// The stream is its whole carrier leaf, so the leaf's key column for
// the join is read in place; a stream of any other length is an error.
// Partition assignment and intra-partition order (leaf order) are those
// of the reference path's append-per-tuple map partitioning of a Scan's
// stream.
func radixPartition(ar *arena, ds *Dataset, join *query.PlanNode, in stream, n int) (radixParts, error) {
	jc := ds.joins[join]
	if jc == nil {
		return radixParts{}, fmt.Errorf("dataset carries no key columns for the requested join")
	}
	col := jc.cols[in.leaf]
	if col == nil {
		return radixParts{}, fmt.Errorf("leaf %s carries no key for the requested join", ds.leaves[in.leaf].Name)
	}
	if in.n != len(col) {
		return radixParts{}, fmt.Errorf("stream of %d rows is not the whole of leaf %s (%d rows)",
			in.n, ds.leaves[in.leaf].Name, len(col))
	}
	pids := ar.getInt32(in.n)
	counts := ar.getInt32(n)
	clear(counts)
	recip, un := reciprocalOf(n), uint64(n)
	for i, key := range col {
		p := partitionBy(key, recip, un)
		pids[i] = p
		counts[p]++
	}

	rp := radixParts{starts: ar.getInt32(n + 1)}
	sum := int32(0)
	for k := 0; k < n; k++ {
		rp.starts[k] = sum
		sum += counts[k]
		counts[k] = rp.starts[k] // reuse as scatter cursors
	}
	rp.starts[n] = sum

	rp.keyback = ar.getInt32(in.n)
	for i, p := range pids {
		pos := counts[p]
		counts[p] = pos + 1
		rp.keyback[pos] = col[i]
	}
	ar.putInt32(pids)
	ar.putInt32(counts)
	return rp, nil
}

// DuplicateKeyError reports a key that a join's smaller operand
// carries twice. A semi-join of the carrier equals the hash join only
// while the smaller operand's keys are distinct; Generate always makes
// them so, and a run over data that breaks the rule fails with this
// error instead of miscounting.
type DuplicateKeyError struct {
	Join int   // the join's ID
	Key  int32 // the repeated key
}

func (e *DuplicateKeyError) Error() string {
	return fmt.Sprintf("join %d: key %d occurs twice (the smaller operand's keys must be distinct)", e.Join, e.Key)
}

// tableKind selects one of the two key-set layouts.
type tableKind uint8

const (
	// tableBits is a presence bitmap over the key domain, one bit per
	// key in ⌈domain/32⌉ words.
	tableBits tableKind = iota
	// tableOA is the open-addressing fallback when even a bit per domain
	// key dwarfs the partition: linear probing, no deletions.
	tableOA
)

// keySet is one clone's presence set over its partition of a join's
// smaller operand.
type keySet struct {
	kind   tableKind
	n      int32 // keys inserted (the partition's size)
	domain int

	// tableBits: bit key&31 of words[key>>5] is set when key is present.
	words []int32
	// tableOA: key -1 marks an empty slot (generated keys are >= 0);
	// len(keys) is 1<<(32-shift) and mask is one less.
	keys  []int32
	mask  uint32
	shift uint32
}

// bitmapOK reports whether a bit per domain key is worth the footprint
// for a partition of m keys: the one rule that picks between the
// bitmap and open addressing.
func bitmapOK(domain, m int) bool {
	return domain/32 <= 8*m+1024
}

// bitmapWords is the word count of a bitmap over [0, domain).
func bitmapWords(domain int) int { return (domain + 31) / 32 }

// joinState is one join in flight, alive from its build until its probe
// consumes (and releases) it. An outer-carrier build is the join's
// smaller operand and fills the per-clone key sets; an inner-carrier
// build is the carrier and keeps its input stream and its partitioning,
// whose keys its probe checks against sets of its own partitions' keys
// and whose stream is the probe's output.
type joinState struct {
	degree  int
	sets    []keySet
	slab    []int32 // every set's array is a window of it
	carrier radixParts
	in      stream // an inner-carrier build's input
}

// carveSets sizes one key set per clone over the partitions of rp, the
// smaller operand's, before the clones run (clone bodies only fill
// their own arrays), and tallies the layouts.
func (st *runState) carveSets(js *joinState, domain int, rp *radixParts) {
	layout := func(m int) (tableKind, int) {
		switch {
		case m == 0:
			return tableBits, 0 // no array; nothing is ever found
		case bitmapOK(domain, m):
			return tableBits, bitmapWords(domain)
		default:
			return tableOA, oaSize(m)
		}
	}
	total := 0
	for k := 0; k < js.degree; k++ {
		_, sz := layout(rp.size(k))
		total += sz
	}
	js.slab = st.ar.getInt32(total)
	js.sets = make([]keySet, js.degree)
	rest := js.slab
	for k := range js.sets {
		m := rp.size(k)
		kind, sz := layout(m)
		s := &js.sets[k]
		*s = keySet{kind: kind, n: int32(m), domain: domain, words: rest[:sz:sz]}
		if kind == tableOA {
			s.setOA(s.words)
		}
		rest = rest[sz:]
		st.layouts[kind]++
	}
}

// release returns the join's arena buffers.
func (js *joinState) release(ar *arena) {
	ar.putInt32(js.slab)
	js.carrier.release(ar)
	*js = joinState{}
}

// oaSize is the slot count of a tableOA over m keys: a power of two
// that keeps the load at or below one half.
func oaSize(m int) int {
	return max(8, roundUpPow2(2*m))
}

// setOA makes s an open-addressing set over the given slot array, whose
// length is a power of two.
func (s *keySet) setOA(keys []int32) {
	s.kind, s.words, s.keys = tableOA, nil, keys
	s.mask = uint32(len(keys) - 1)
	s.shift = uint32(32 - bits.TrailingZeros32(uint32(len(keys))))
}

// home is a key's first slot in a tableOA: the top log2(size) bits of
// its multiplicative hash (Fibonacci hashing, Knuth 6.4). The low bits
// will not do: the exchange chose this partition by the same hash mod n,
// so at a power-of-two degree every key here agrees on its low log2(n)
// bits and hash&mask reaches only one home slot in n.
func (s *keySet) home(key int32) uint32 {
	return (uint32(key) * hashMul) >> s.shift
}

// outside reports whether key lies outside the set's domain — a
// dataflow bug, not a miss.
func (s *keySet) outside(key int32) bool {
	return uint(key) >= uint(s.domain)
}

// insert fills the set with one partition's keys (run inside the clone
// body; the arrays were carved on the coordinator). A key already
// present is a *DuplicateKeyError naming the join.
func (s *keySet) insert(join int, keys []int32) error {
	if s.n == 0 {
		return nil // empty partition
	}
	switch s.kind {
	case tableBits:
		words := s.words
		clear(words)
		for _, key := range keys {
			if s.outside(key) {
				return fmt.Errorf("key %d outside domain [0, %d)", key, s.domain)
			}
			w, bit := &words[key>>5], int32(1)<<(key&31)
			if *w&bit != 0 {
				return &DuplicateKeyError{Join: join, Key: key}
			}
			*w |= bit
		}
	case tableOA:
		for i := range s.keys {
			s.keys[i] = -1
		}
		for _, key := range keys {
			j := s.home(key)
			for ; s.keys[j] != -1; j = (j + 1) & s.mask {
				if s.keys[j] == key {
					return &DuplicateKeyError{Join: join, Key: key}
				}
			}
			s.keys[j] = key
		}
	}
	return nil
}

// misses checks a carrier partition's keys against the set and returns
// how many it lacks. The set's keys are distinct, so the hash join of
// the two partitions emits one row per carrier key the set holds: a
// partition that misses nothing is emitted whole, in partition order.
func (s *keySet) misses(keys []int32) (int, error) {
	if s.n == 0 {
		return len(keys), nil
	}
	miss := 0
	switch s.kind {
	case tableBits:
		for _, key := range keys {
			if s.outside(key) {
				return 0, fmt.Errorf("key %d outside domain [0, %d)", key, s.domain)
			}
			miss += int(^uint32(s.words[key>>5]) >> (key & 31) & 1)
		}
	case tableOA:
		for _, key := range keys {
			j := s.home(key)
			for s.keys[j] != key && s.keys[j] != -1 {
				j = (j + 1) & s.mask
			}
			if s.keys[j] == -1 {
				miss++
			}
		}
	}
	return miss, nil
}
