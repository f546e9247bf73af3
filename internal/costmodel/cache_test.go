package costmodel

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"mdrs/internal/resource"
)

// randomSpec draws an OpSpec from the same shape space the plan
// expansion produces.
func randomSpec(r *rand.Rand) OpSpec {
	return OpSpec{
		Kind:         OpKind(r.Intn(4)),
		InTuples:     1 + r.Intn(100000),
		ResultTuples: r.Intn(100000),
		NetIn:        r.Intn(2) == 0,
		NetOut:       r.Intn(2) == 0,
	}
}

// Every cached answer must be bit-identical to the uncached model's,
// across repeated lookups of a shared spec pool.
func TestCacheMatchesModelExactly(t *testing.T) {
	m := Default()
	c := NewCache(m)
	ov := resource.MustOverlap(0.5)
	r := rand.New(rand.NewSource(42))
	specs := make([]OpSpec, 30)
	for i := range specs {
		specs[i] = randomSpec(r)
	}
	for round := 0; round < 3; round++ {
		for _, spec := range specs {
			want := m.Cost(spec)
			got := c.Cost(spec)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Cost(%+v): cached %+v != model %+v", spec, got, want)
			}
			f := 0.1 + r.Float64()
			p := 1 + r.Intn(64)
			if got, want := c.DegreeCapped(spec, f, p, ov, 0), m.Degree(want, f, p, ov); got != want {
				t.Fatalf("Degree(%+v, f=%g, p=%d): cached %d != model %d", spec, f, p, got, want)
			}
			n := 1 + r.Intn(8)
			if got, want := c.Clones(spec, n), m.Split(m.Cost(spec), n); got != want {
				t.Fatalf("Clones(%+v, %d): cached %v != model %v", spec, n, got, want)
			}
		}
	}
	hits, misses := c.Stats()
	if hits == 0 || misses == 0 {
		t.Fatalf("stats: hits %d, misses %d — repeated lookups should produce both", hits, misses)
	}
}

// A second lookup of the same key must be a hit, and a degree reads
// the cached cost: it has no memo entry of its own to miss.
func TestCacheMemoizesAndShares(t *testing.T) {
	c := NewCache(Default())
	spec := OpSpec{Kind: Scan, InTuples: 1000}
	ov := resource.MustOverlap(0.5)

	c.Cost(spec)
	hits, misses := c.Stats()
	c.Cost(spec)
	c.DegreeCapped(spec, 0.7, 32, ov, 0)
	if h2, m2 := c.Stats(); h2 != hits+2 || m2 != misses {
		t.Fatalf("hits %d -> %d, misses %d -> %d: the repeated Cost and the Degree should each hit once",
			hits, h2, misses, m2)
	}

	// Distinct keys stay distinct.
	if got, want := c.DegreeCapped(spec, 0.7, 16, ov, 0), c.Model().Degree(c.Model().Cost(spec), 0.7, 16, ov); got != want {
		t.Fatalf("Degree with p=16: %d != %d", got, want)
	}
}

// The memo maps reset (not grow) past the limit, and answers stay
// correct afterwards.
func TestCacheBounded(t *testing.T) {
	c := NewCache(Default())
	for i := 0; i < cacheMapLimit+10; i++ {
		c.Cost(OpSpec{Kind: Scan, InTuples: i + 1})
	}
	c.mu.RLock()
	n := len(c.costs)
	c.mu.RUnlock()
	if n > cacheMapLimit {
		t.Fatalf("cost map grew to %d entries, limit %d", n, cacheMapLimit)
	}
	spec := OpSpec{Kind: Scan, InTuples: 77}
	if got, want := c.Cost(spec), Default().Cost(spec); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-reset Cost mismatch: %+v != %+v", got, want)
	}
}

// Concurrent lookups over a shared cache must agree with the model;
// run under -race by make race.
func TestCacheConcurrent(t *testing.T) {
	m := Default()
	c := NewCache(m)
	ov := resource.MustOverlap(0.5)
	specs := []OpSpec{
		{Kind: Scan, InTuples: 5000},
		{Kind: Build, InTuples: 5000, NetIn: true},
		{Kind: Probe, InTuples: 5000, ResultTuples: 9000, NetIn: true, NetOut: true},
		{Kind: Store, InTuples: 9000, NetIn: true},
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				spec := specs[(g+i)%len(specs)]
				if got, want := c.Cost(spec), m.Cost(spec); !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent Cost mismatch: %+v != %+v", got, want)
					return
				}
				n := 1 + (g+i)%6
				if got, want := c.DegreeCapped(spec, 0.7, 32, ov, 0), m.Degree(m.Cost(spec), 0.7, 32, ov); got != want {
					t.Errorf("concurrent Degree mismatch: %d != %d", got, want)
					return
				}
				if got, want := c.Clones(spec, n), m.Split(m.Cost(spec), n); got != want {
					t.Errorf("concurrent Clones mismatch")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
