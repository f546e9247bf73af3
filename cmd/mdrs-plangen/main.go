// Command mdrs-plangen emits random bushy hash-join execution plans as
// JSON, using the paper's workload settings (relations of 10³–10⁵
// tuples, simple key joins).
//
// Usage:
//
//	mdrs-plangen [-joins N] [-seed S] [-min T] [-max T] [-shape bushy|left|right|balanced]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"mdrs"
)

func main() {
	joins := flag.Int("joins", 10, "number of joins")
	seed := flag.Int64("seed", 1, "random seed")
	minT := flag.Int("min", 1_000, "minimum relation cardinality (tuples)")
	maxT := flag.Int("max", 100_000, "maximum relation cardinality (tuples)")
	shape := flag.String("shape", "bushy", "plan shape: bushy, left, right, balanced")
	flag.Parse()

	data, err := generate(*joins, *seed, *minT, *maxT, *shape)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdrs-plangen: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}

// generate builds one plan and returns its JSON encoding.
func generate(joins int, seed int64, minT, maxT int, shape string) ([]byte, error) {
	var sh mdrs.Shape
	switch shape {
	case "bushy":
		sh = mdrs.RandomBushy
	case "left":
		sh = mdrs.LeftDeep
	case "right":
		sh = mdrs.RightDeep
	case "balanced":
		sh = mdrs.Balanced
	default:
		return nil, fmt.Errorf("unknown shape %q", shape)
	}
	cfg := mdrs.GenConfig{Joins: joins, MinTuples: minT, MaxTuples: maxT}
	p, err := mdrs.RandomShapedPlan(rand.New(rand.NewSource(seed)), cfg, sh)
	if err != nil {
		return nil, err
	}
	return p.Encode()
}
