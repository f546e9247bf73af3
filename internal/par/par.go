// Package par is the bounded worker pool shared by the deterministic
// parallel paths of the repository: the engine's parallel clone runs
// and the trial pool of the figure harness in internal/repro/experiments.
// Scheduling and the fluid simulator are serial and do not use it.
//
// The contract that keeps every caller byte-identical across pool widths
// is positional: For(w, n, fn) promises only that fn runs once for every
// index in [0, n) and that all calls have returned when For does. Callers
// communicate results exclusively through slices indexed by i, and reduce
// them serially in index order afterwards — so the aggregate (including
// which of several errors is reported) cannot depend on scheduling
// interleavings or on w. This is the same discipline the experiments
// harness's trial pool established; par factors it out so the engine
// does not grow a private copy.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a Workers knob to an effective pool width: positive
// values are taken as-is, everything else means runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// For runs fn(0), fn(1), …, fn(n-1) across at most w goroutines and
// returns once every call has. With w <= 1 (or n <= 1) it degenerates to
// the plain serial loop on the calling goroutine — no goroutine is ever
// spawned — so a Workers=1 configuration is exactly the pre-parallel
// code path. Indices are handed out by an atomic counter, so the pool
// self-balances when items have uneven costs.
//
// fn must write any result it produces into caller-owned storage at
// index i; For establishes the happens-before edge (via WaitGroup.Wait)
// that makes those writes visible to the caller afterwards.
func For(w, n int, fn func(i int)) {
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
