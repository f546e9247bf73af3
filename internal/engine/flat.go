// Flat operator state: every join runs as a semi-join of its carrier,
// and its one table is a presence bitmap over the join's key domain,
// filled with the smaller operand's keys, which must be distinct. An
// exchange (the repartitioning of assumption A5) reads its side's key
// column in place in one pass and ships nothing: it counts how many of
// the column's keys go to each clone, checks every key against the
// domain and, on the carrier side, counts per clone the keys whose bit
// is clear. A carrier key the bitmap lacks is a miss, and any miss
// fails the join's cardinality check, so on a run that passes each
// clone emits its whole carrier partition and the probe's output is its
// carrier's input stream. By induction every stream is one leaf's rows
// 0..n-1, and an exchange reads the join's key column in place. A key's
// partition is a function of the key alone, so a key is in its clone's
// partition of the smaller operand exactly when it is in the join's
// bitmap: every per-clone count and emitted count is the reference
// (pre-flat) executor's, and every Report field is byte-identical. The
// order of rows inside an intermediate stream is not kept, and no
// Report field depends on it.
package engine

import (
	"fmt"
	"math/bits"

	"mdrs/internal/query"
)

// hashMul is Knuth's multiplicative constant of the partition hash.
const hashMul = 2654435761

// stream is an operator's output: the whole of its one carrier leaf,
// rows 0..n-1. A Scan's stream is its leaf; a Probe or a Store passes
// its carrier's input stream on.
type stream struct {
	leaf int32
	n    int // the stream's length, the leaf's cardinality
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

// keyColumn resolves a stream's key column for the given join and the
// join's key domain. The stream is its whole carrier leaf, so the
// leaf's column is the stream's keys, read in place; a stream of any
// other length is an error.
func keyColumn(ds *Dataset, join *query.PlanNode, in stream) ([]int32, int, error) {
	jc := ds.joins[join]
	if jc == nil {
		return nil, 0, fmt.Errorf("dataset carries no key columns for the requested join")
	}
	col := jc.cols[in.leaf]
	if col == nil {
		return nil, 0, fmt.Errorf("leaf %s carries no key for the requested join", ds.leaves[in.leaf].Name)
	}
	if in.n != len(col) {
		return nil, 0, fmt.Errorf("stream of %d rows is not the whole of leaf %s (%d rows)",
			in.n, ds.leaves[in.leaf].Name, len(col))
	}
	return col, jc.domain, nil
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

// outsideDomain is the error of a key outside [0, domain): a dataflow
// bug, not a miss.
func outsideDomain(key int32, domain int) error {
	return fmt.Errorf("key %d outside domain [0, %d)", key, domain)
}

// bitmapWords is the word count of a bitmap over [0, domain).
func bitmapWords(domain int) int { return (domain + 31) / 32 }

// fillBitmap is the exchange of a join's smaller operand: one pass over
// its key column that counts each clone's keys into counts (one entry
// per clone) and sets each key's bit in the join's bitmap (bitmapWords
// words). A key outside [0, domain) is an error; a key whose bit is set
// already is a *DuplicateKeyError naming the join.
func fillBitmap(bitmap, counts, col []int32, domain, join int) error {
	clear(bitmap)
	clear(counts)
	recip, n := reciprocalOf(len(counts)), uint64(len(counts))
	for _, key := range col {
		if uint(key) >= uint(domain) {
			return outsideDomain(key, domain)
		}
		w, bit := &bitmap[key>>5], int32(1)<<(key&31)
		if *w&bit != 0 {
			return &DuplicateKeyError{Join: join, Key: key}
		}
		*w |= bit
		counts[partitionBy(key, recip, n)]++
	}
	return nil
}

// countCarrier is the exchange of a join's carrier: one pass over its
// key column that counts each clone's keys into counts and checks each
// key against the domain. With a bitmap (the probe of an outer-carrier
// join, whose build filled it) the same pass tests each key's bit, and
// misses ends up holding, per clone, the keys whose bit is clear: a run
// that passes has none, so the pass only tallies them, and the clones'
// misses are counted by countMisses when the tally is not zero. Without
// a bitmap (an inner-carrier build, whose probe fills it later) misses
// is not touched.
func countCarrier(bitmap, counts, misses, col []int32, domain int) error {
	clear(counts)
	recip, n := reciprocalOf(len(counts)), uint64(len(counts))
	if bitmap == nil {
		for _, key := range col {
			if uint(key) >= uint(domain) {
				return outsideDomain(key, domain)
			}
			counts[partitionBy(key, recip, n)]++
		}
		return nil
	}
	absent := int32(0)
	for _, key := range col {
		if uint(key) >= uint(domain) {
			return outsideDomain(key, domain)
		}
		counts[partitionBy(key, recip, n)]++
		absent += ^bitmap[key>>5] >> (key & 31) & 1
	}
	if absent == 0 {
		clear(misses)
	} else {
		countMisses(bitmap, misses, col)
	}
	return nil
}

// countMisses checks a carrier's key column, which its exchange has
// counted and held to the domain already, against the join's bitmap
// and counts each key whose bit is clear in its clone's misses: the
// partition is computed for a missing key only.
func countMisses(bitmap, misses, col []int32) {
	clear(misses)
	recip, n := reciprocalOf(len(misses)), uint64(len(misses))
	for _, key := range col {
		if bitmap[key>>5]>>(key&31)&1 == 0 {
			misses[partitionBy(key, recip, n)]++
		}
	}
}

// joinState is one join of a run, built while its degree is not zero:
// from its build until its probe consumes it. An outer-carrier build is
// the join's smaller operand and leaves the filled bitmap; an
// inner-carrier build is the carrier and leaves its input stream, its
// key column and its per-clone counts, which its probe checks against
// the bitmap it fills and whose stream is the probe's output. The
// bitmap and counts buffers stay with the run state from run to run.
type joinState struct {
	degree int
	bitmap []int32
	counts []int32 // the build's per-clone counts, an inner carrier's read by its probe
	col    []int32 // an inner-carrier build's key column
	in     stream  // an inner-carrier build's input
}
