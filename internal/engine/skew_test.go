package engine

import (
	"testing"
)

// TestSkewedRunDriftsAbovePrediction pins the EA1-violation behavior
// DESIGN promises: a SkewS>1 dataset still joins to exactly the
// predicted cardinalities (every larger-side tuple matches exactly one
// smaller-side tuple regardless of key distribution), but its hash
// partitions are measurably imbalanced, so the slowest clone carries
// more work than the scheduler's uniform-partition model assumed and
// the measured response drifts above the prediction.
func TestSkewedRunDriftsAbovePrediction(t *testing.T) {
	const sites = 8
	p := join(leaf("A", 40000), leaf("B", 8000))
	ds, err := GenerateOpts(p, GenOptions{Seed: 23, SkewS: 1.3})
	if err != nil {
		t.Fatal(err)
	}
	s := scheduleFor(t, p, sites)

	// Count the probe side (leaf A, the larger operand) per clone with
	// the probe's own exchange and record the imbalance: max partition
	// size over mean partition size.
	aIdx, err := ds.LeafIndex(p.Outer)
	if err != nil {
		t.Fatal(err)
	}
	col, domain, err := keyColumn(ds, p, stream{leaf: aIdx, n: 40000})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int32, sites)
	if err := countCarrier(nil, counts, nil, col, domain); err != nil {
		t.Fatal(err)
	}
	maxSz, total := 0, 0
	for _, c := range counts {
		maxSz = max(maxSz, int(c))
		total += int(c)
	}
	if total != 40000 {
		t.Fatalf("partitions cover %d of 40000 tuples", total)
	}
	mean := float64(total) / float64(sites)
	ratio := float64(maxSz) / mean
	t.Logf("skew=1.3 partition imbalance: max/mean = %.2f (max %d, mean %.0f)", ratio, maxSz, mean)
	if ratio < 1.2 {
		t.Fatalf("partitions suspiciously balanced under Zipf 1.3: max/mean = %.2f", ratio)
	}

	rep, err := testEngine().Run(ds, s)
	if err != nil {
		t.Fatal(err)
	}
	// Cardinalities must still match exactly (the run itself enforces
	// per-join and root cardinality; spot-check the root here).
	if rep.ResultTuples != 40000 {
		t.Fatalf("skewed join produced %d tuples, want 40000", rep.ResultTuples)
	}
	if rep.Measured <= rep.Predicted {
		t.Fatalf("skewed run does not drift above prediction: measured %g <= predicted %g",
			rep.Measured, rep.Predicted)
	}

	// The same plan with uniform keys tracks the prediction much more
	// closely — the drift is attributable to the skew, not the engine.
	uni := MustGenerate(p, 23)
	repU, err := testEngine().Run(uni, s)
	if err != nil {
		t.Fatal(err)
	}
	skewGap := rep.Measured / rep.Predicted
	uniGap := repU.Measured / repU.Predicted
	t.Logf("measured/predicted: skew=%.4f uniform=%.4f", skewGap, uniGap)
	if skewGap <= uniGap {
		t.Fatalf("skewed drift %.4f not above uniform drift %.4f", skewGap, uniGap)
	}
}
