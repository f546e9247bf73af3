package sched

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mdrs/internal/costmodel"
	"mdrs/internal/obs"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
)

// parWorkersGrid is the pool widths every identity test sweeps: the
// forced-serial path, small pools, and pools wider than the host.
var parWorkersGrid = []int{1, 2, 4, 8}

func parTree(t testing.TB, seed int64, joins int) *plan.TaskTree {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	p := query.MustRandom(r, query.DefaultGenConfig(joins))
	return plan.MustNewTaskTree(plan.MustExpand(p))
}

// The tentpole invariant: TreeSchedule output is byte-identical for
// every Workers value, with and without a cost cache, at small and
// large system sizes.
func TestTreeScheduleWorkersInvariance(t *testing.T) {
	for _, p := range []int{16, 300, 512} {
		for _, joins := range []int{6, 12, 18} {
			tt := parTree(t, int64(100*p+joins), joins)
			for _, cached := range []bool{false, true} {
				ts := TreeScheduler{Model: costmodel.Default(), Overlap: resource.MustOverlap(0.5), P: p, F: 0.7}
				if cached {
					ts.Cache = costmodel.NewCache(ts.Model)
				}
				ts.Workers = 1
				ref, err := ts.Schedule(tt)
				if err != nil {
					t.Fatalf("P=%d joins=%d: %v", p, joins, err)
				}
				refJSON, err := EncodeJSON(ref)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range append([]int{0}, parWorkersGrid[1:]...) {
					ts.Workers = w
					s, err := ts.Schedule(tt)
					if err != nil {
						t.Fatalf("P=%d joins=%d workers=%d: %v", p, joins, w, err)
					}
					got, err := EncodeJSON(s)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, refJSON) {
						t.Fatalf("P=%d joins=%d cached=%v: workers=%d schedule differs from workers=1",
							p, joins, cached, w)
					}
				}
			}
		}
	}
}

// Same invariant for ScheduleBatch, whose preparation fan-out spans all
// batch entries of a global phase (including a repeated tree, the PR 3
// aliasing case).
func TestScheduleBatchWorkersInvariance(t *testing.T) {
	shared := parTree(t, 7, 10)
	trees := []*plan.TaskTree{
		parTree(t, 3, 8),
		shared,
		parTree(t, 5, 14),
		shared,
	}
	for _, p := range []int{24, 300} {
		ts := TreeScheduler{Model: costmodel.Default(), Overlap: resource.MustOverlap(0.4), P: p, F: 0.7, Workers: 1}
		ref, err := ts.ScheduleBatch(trees)
		if err != nil {
			t.Fatal(err)
		}
		refJSON, err := EncodeJSON(ref)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range parWorkersGrid[1:] {
			ts.Workers = w
			s, err := ts.ScheduleBatch(trees)
			if err != nil {
				t.Fatal(err)
			}
			got, err := EncodeJSON(s)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, refJSON) {
				t.Fatalf("P=%d workers=%d: batch schedule differs from workers=1", p, w)
			}
		}
	}
}

// The pool must actually engage: with Workers > 1 the parallel prepare
// counter and the effective pool width appear in the metrics, at large
// and small P alike; with Workers = 1 the serial counter appears instead.
func TestParallelCountersRecorded(t *testing.T) {
	tt := parTree(t, 21, 12)
	for _, p := range []int{300, 16} {
		met := obs.NewMetrics()
		ts := TreeScheduler{
			Model: costmodel.Default(), Overlap: resource.MustOverlap(0.5),
			P: p, F: 0.7, Rec: met, Workers: 4,
		}
		if _, err := ts.Schedule(tt); err != nil {
			t.Fatal(err)
		}
		snap := met.Snapshot()
		if snap.Counters["sched.par.prepare_ops_parallel"] == 0 {
			t.Errorf("P=%d: prepare_ops_parallel not counted: %v", p, snap.Counters)
		}
		if _, ok := snap.Histograms["sched.par.workers"]; !ok {
			t.Errorf("P=%d: sched.par.workers histogram missing", p)
		}

		met = obs.NewMetrics()
		ts.Rec, ts.Workers = met, 1
		if _, err := ts.Schedule(tt); err != nil {
			t.Fatal(err)
		}
		snap = met.Snapshot()
		if snap.Counters["sched.par.prepare_ops_serial"] == 0 || snap.Counters["sched.par.prepare_ops_parallel"] != 0 {
			t.Errorf("P=%d workers=1: prepare counters %v", p, snap.Counters)
		}
	}
}

// Race hammer (run under -race by make race): many
// concurrent ScheduleCtx calls with Workers=4 on a shared cache, a
// fraction cancelled mid-placement. Completed runs must be byte-equal
// to the reference; cancelled runs must return ctx.Err().
func TestScheduleCtxParallelHammer(t *testing.T) {
	tt := parTree(t, 31, 16)
	model := costmodel.Default()
	cache := costmodel.NewCache(model)
	mk := func() TreeScheduler {
		return TreeScheduler{
			Model: model, Overlap: resource.MustOverlap(0.5),
			P: 300, F: 0.7, Cache: cache, Workers: 4,
		}
	}
	ref, err := mk().Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := EncodeJSON(ref)
	if err != nil {
		t.Fatal(err)
	}

	const calls = 24
	var wg sync.WaitGroup
	errCh := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			cancelled := i%3 == 0
			if cancelled {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(i)*50*time.Microsecond)
				defer cancel()
			}
			s, err := mk().ScheduleCtx(ctx, tt)
			switch {
			case err != nil:
				if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
					errCh <- err
				}
			default:
				got, err := EncodeJSON(s)
				if err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(got, refJSON) {
					errCh <- errors.New("concurrent schedule differs from reference")
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
