package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// poolWidth resolves Config.Workers to an effective pool width: positive
// values are taken as-is, everything else means runtime.GOMAXPROCS(0).
func poolWidth(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// poolFor runs fn(0), fn(1), …, fn(n-1) across at most w goroutines and
// returns once every call has. With w <= 1 (or n <= 1) it is the plain
// serial loop on the calling goroutine. Indices are handed out by an
// atomic counter, so the pool self-balances when trials have uneven
// costs.
//
// The contract that keeps every figure byte-identical across pool
// widths is positional: fn writes its result into caller-owned storage
// at index i, and the caller reduces those slots serially in index
// order afterwards (WaitGroup.Wait makes the writes visible), so the
// aggregate — including which of several errors is reported — cannot
// depend on interleavings or on w.
func poolFor(w, n int, fn func(i int)) {
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
