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
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
)

func parTree(t testing.TB, seed int64, joins int) *plan.TaskTree {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	p := query.MustRandom(r, query.DefaultGenConfig(joins))
	return plan.MustNewTaskTree(plan.MustExpand(p))
}

// Workers is an inert field: every value gives one Fingerprint and
// byte-identical schedules, with and without a cost cache.
func TestTreeScheduleWorkersInvariance(t *testing.T) {
	for _, p := range []int{16, 300} {
		tt := parTree(t, int64(100*p+12), 12)
		for _, cached := range []bool{false, true} {
			ts := TreeScheduler{Model: costmodel.Default(), Overlap: resource.MustOverlap(0.5), P: p, F: 0.7}
			if cached {
				ts.Cache = costmodel.NewCache(ts.Model)
			}
			var refFP Fingerprint
			var refJSON []byte
			for i, w := range []int{0, 1, 7} {
				ts.Workers = w
				s, err := ts.Schedule(tt)
				if err != nil {
					t.Fatalf("P=%d workers=%d: %v", p, w, err)
				}
				got, err := EncodeJSON(s)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					refFP, refJSON = ts.Fingerprint(tt), got
					continue
				}
				if ts.Fingerprint(tt) != refFP {
					t.Fatalf("P=%d: workers=%d changed the fingerprint", p, w)
				}
				if !bytes.Equal(got, refJSON) {
					t.Fatalf("P=%d cached=%v: workers=%d schedule differs from workers=0", p, cached, w)
				}
			}
		}
	}
}

// Race hammer (run under -race by make race): many
// concurrent ScheduleCtx calls on a shared cache, a
// fraction cancelled mid-placement. Completed runs must be byte-equal
// to the reference; cancelled runs must return ctx.Err().
func TestScheduleCtxParallelHammer(t *testing.T) {
	tt := parTree(t, 31, 16)
	model := costmodel.Default()
	cache := costmodel.NewCache(model)
	mk := func() TreeScheduler {
		return TreeScheduler{
			Model: model, Overlap: resource.MustOverlap(0.5),
			P: 300, F: 0.7, Cache: cache,
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
