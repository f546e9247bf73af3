package experiments

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := poolWidth(3); got != 3 {
		t.Fatalf("poolWidth(3) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := poolWidth(0); got != want {
		t.Fatalf("poolWidth(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := poolWidth(-5); got != want {
		t.Fatalf("poolWidth(-5) = %d, want GOMAXPROCS %d", got, want)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{0, 1, 2, 7, 64} {
		const n = 137
		var hits [n]atomic.Int64
		poolFor(w, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("w=%d: index %d ran %d times", w, i, got)
			}
		}
	}
}

func TestForZeroItems(t *testing.T) {
	ran := false
	poolFor(4, 0, func(int) { ran = true })
	if ran {
		t.Fatal("fn ran with n=0")
	}
}

// Positional results must be independent of the pool width: same inputs,
// same output slice, any w.
func TestForPositionalDeterminism(t *testing.T) {
	const n = 500
	ref := make([]int, n)
	poolFor(1, n, func(i int) { ref[i] = i * i })
	for _, w := range []int{2, 3, 8} {
		got := make([]int, n)
		poolFor(w, n, func(i int) { got[i] = i * i })
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("w=%d: index %d = %d, want %d", w, i, got[i], ref[i])
			}
		}
	}
}
