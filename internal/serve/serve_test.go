package serve

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mdrs/internal/costmodel"
	"mdrs/internal/obs"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
)

func testScheduler(p int, eps, f float64) sched.TreeScheduler {
	return sched.TreeScheduler{
		Model:   costmodel.Default(),
		Overlap: resource.MustOverlap(eps),
		P:       p,
		F:       f,
	}
}

func testTree(t testing.TB, seed int64, joins int) *plan.TaskTree {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	p := query.MustRandom(r, query.DefaultGenConfig(joins))
	return plan.MustNewTaskTree(plan.MustExpand(p))
}

func mustService(t testing.TB, cfg Config) *Service {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

// TestConcurrentRequestsBoundedAndIdentical is the service's core
// contract, run with ≥32 goroutines racing through admission, batching,
// and scheduling (the suite is part of `make race`):
//
//	(a) in-flight requests never exceed MaxInFlight,
//	(b) every admitted request succeeds, and
//	(c) each request's schedule is byte-identical to a direct
//	    ScheduleBatch call on the exact grouping the service formed.
func TestConcurrentRequestsBoundedAndIdentical(t *testing.T) {
	const (
		limit = 4
		reqs  = 40
	)
	ts := testScheduler(16, 0.5, 0.7)
	met := obs.NewMetrics()
	svc := mustService(t, Config{
		Scheduler:   ts,
		MaxInFlight: limit,
		MaxQueue:    reqs,
		BatchWindow: 3 * time.Millisecond,
		MaxBatch:    4,
		Rec:         met,
	})

	trees := make([]*plan.TaskTree, 6)
	for i := range trees {
		trees[i] = testTree(t, int64(i+1), 6)
	}

	results := make([]*Result, reqs)
	errs := make([]error, reqs)
	var wg sync.WaitGroup
	for i := 0; i < reqs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = svc.Schedule(context.Background(), trees[i%len(trees)])
		}(i)
	}
	wg.Wait()

	direct := ts // no recorder: the comparison target is the bare scheduler
	verified := map[*sched.Schedule]bool{}
	for i := 0; i < reqs; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, errs[i])
		}
		res := results[i]
		if res == nil || res.Schedule == nil {
			t.Fatalf("request %d has no result", i)
		}
		if res.Index < 0 || res.Index >= len(res.Group) || res.Group[res.Index] != trees[i%len(trees)] {
			t.Fatalf("request %d: index %d does not locate its tree in a group of %d",
				i, res.Index, len(res.Group))
		}
		if len(res.Group) > 4 {
			t.Fatalf("request %d: group of %d exceeds MaxBatch 4", i, len(res.Group))
		}
		if verified[res.Schedule] {
			continue // group schedule already compared for another member
		}
		verified[res.Schedule] = true
		want, err := direct.ScheduleBatch(res.Group)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := sched.EncodeJSON(res.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := sched.EncodeJSON(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("request %d: served schedule differs from direct ScheduleBatch on the same group", i)
		}
	}

	snap := met.Snapshot()
	h, ok := snap.Histograms["serve.inflight"]
	if !ok || h.Count != reqs {
		t.Fatalf("serve.inflight sampled %d times, want %d", h.Count, reqs)
	}
	if h.Max > limit {
		t.Fatalf("in-flight peaked at %g, admission limit is %d", h.Max, limit)
	}
	if snap.Counters["serve.requests"] != reqs {
		t.Fatalf("serve.requests = %d, want %d", snap.Counters["serve.requests"], reqs)
	}
	if bs := snap.Histograms["serve.batch_size"]; bs.Count == 0 || bs.Max > 4 {
		t.Fatalf("batch sizes %+v violate MaxBatch", bs)
	}
	if svc.InFlight() != 0 {
		t.Fatalf("%d requests still in flight after completion", svc.InFlight())
	}
}

func TestCancelledRequestReturnsCtxErrPromptly(t *testing.T) {
	met := obs.NewMetrics()
	svc := mustService(t, Config{
		Scheduler:   testScheduler(8, 0.5, 0.7),
		MaxInFlight: 1,
		BatchWindow: 500 * time.Millisecond,
		Rec:         met,
	})
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	errCh := make(chan error, 1)
	go func() {
		_, err := svc.Schedule(ctx, testTree(t, 3, 5))
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the request enter the batching window
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled request returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled request never returned")
	}
	if elapsed := time.Since(start); elapsed > 400*time.Millisecond {
		t.Fatalf("cancelled request took %v — it waited out the 500ms batching window", elapsed)
	}
	// The request left before its window closed, so no batch was ever
	// scheduled for it. Close drains the collector first so the window
	// has deterministically resolved by the time we read the counter.
	svc.Close()
	if n := met.Snapshot().Counters["serve.batches"]; n != 0 {
		t.Fatalf("cancelled request was still scheduled (%d batches)", n)
	}
}

func TestPreCancelledRequestNeverAdmitted(t *testing.T) {
	met := obs.NewMetrics()
	svc := mustService(t, Config{Scheduler: testScheduler(8, 0.5, 0.7), Rec: met})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Schedule(ctx, testTree(t, 4, 4)); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if met.Snapshot().Histograms["serve.inflight"].Count != 0 {
		t.Fatal("pre-cancelled request consumed an admission slot")
	}
}

func TestOverloadShedsWithTypedError(t *testing.T) {
	met := obs.NewMetrics()
	svc := mustService(t, Config{
		Scheduler:   testScheduler(8, 0.5, 0.7),
		MaxInFlight: 1,
		MaxQueue:    -1, // no wait queue: full means shed
		BatchWindow: 200 * time.Millisecond,
		Rec:         met,
	})
	tree := testTree(t, 5, 5)
	resCh := make(chan error, 1)
	go func() {
		_, err := svc.Schedule(context.Background(), tree)
		resCh <- err
	}()
	time.Sleep(30 * time.Millisecond) // first request holds the only slot, in its window
	if _, err := svc.Schedule(context.Background(), tree); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("got %v, want ErrOverloaded", err)
	}
	if err := <-resCh; err != nil {
		t.Fatalf("first request failed: %v", err)
	}
	if met.Snapshot().Counters["serve.rejected"] != 1 {
		t.Fatal("rejection not counted")
	}
}

func TestWaitQueueIsBounded(t *testing.T) {
	svc := mustService(t, Config{
		Scheduler:   testScheduler(8, 0.5, 0.7),
		MaxInFlight: 1,
		MaxQueue:    2,
		BatchWindow: 150 * time.Millisecond,
	})
	tree := testTree(t, 6, 5)
	errCh := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			_, err := svc.Schedule(context.Background(), tree)
			errCh <- err
		}()
		time.Sleep(20 * time.Millisecond)
	}
	// Slot held by request 1 (in its window), requests 2 and 3 fill the
	// wait queue of two; request 4 must shed.
	if _, err := svc.Schedule(context.Background(), tree); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("got %v, want ErrOverloaded", err)
	}
	for i := 0; i < 3; i++ {
		if err := <-errCh; err != nil {
			t.Fatalf("queued request failed: %v", err)
		}
	}
}

func TestDeadlinePressureDegradesToSolo(t *testing.T) {
	met := obs.NewMetrics()
	svc := mustService(t, Config{
		Scheduler:   testScheduler(8, 0.5, 0.7),
		MaxInFlight: 2,
		BatchWindow: 250 * time.Millisecond,
		SoloMargin:  2 * time.Second,
		Rec:         met,
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	start := time.Now()
	res, err := svc.Schedule(ctx, testTree(t, 7, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solo || len(res.Group) != 1 {
		t.Fatalf("near-deadline request was batched: solo=%v group=%d", res.Solo, len(res.Group))
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("solo request took %v — it sat in the batching window", elapsed)
	}
	if met.Snapshot().Counters["serve.solo_deadline"] != 1 {
		t.Fatal("solo fallback not counted")
	}

	// A relaxed deadline (farther than SoloMargin) must still batch.
	relaxed, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	svc2 := mustService(t, Config{
		Scheduler:   testScheduler(8, 0.5, 0.7),
		BatchWindow: 20 * time.Millisecond,
		SoloMargin:  5 * time.Millisecond,
	})
	res2, err := svc2.Schedule(relaxed, testTree(t, 7, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Solo {
		t.Fatal("relaxed-deadline request degraded to solo")
	}
}

func TestWindowGroupsConcurrentRequests(t *testing.T) {
	ts := testScheduler(12, 0.5, 0.7)
	svc := mustService(t, Config{
		Scheduler:   ts,
		MaxInFlight: 8,
		BatchWindow: 150 * time.Millisecond,
		MaxBatch:    8,
	})
	trees := []*plan.TaskTree{testTree(t, 11, 4), testTree(t, 12, 5), testTree(t, 13, 6), testTree(t, 14, 4)}
	results := make([]*Result, len(trees))
	errs := make([]error, len(trees))
	var wg sync.WaitGroup
	for i := range trees {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = svc.Schedule(context.Background(), trees[i])
		}(i)
		if i == 0 {
			time.Sleep(30 * time.Millisecond) // first request opens the window
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	// All four arrived well inside the first request's 150ms window, so
	// they share one group and one schedule.
	for i := 1; i < len(results); i++ {
		if results[i].Schedule != results[0].Schedule {
			t.Fatalf("request %d scheduled in a different group", i)
		}
	}
	if len(results[0].Group) != len(trees) {
		t.Fatalf("group of %d, want %d", len(results[0].Group), len(trees))
	}
	// Group membership order and indices are consistent.
	for i, res := range results {
		if res.Group[res.Index] != trees[i] {
			t.Fatalf("request %d: index %d does not point at its tree", i, res.Index)
		}
	}
	// And the shared schedule is what a direct call produces.
	want, err := ts.ScheduleBatch(results[0].Group)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := sched.EncodeJSON(results[0].Schedule)
	wantJSON, _ := sched.EncodeJSON(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatal("grouped schedule differs from direct ScheduleBatch")
	}
}

func TestBatchOfOneMatchesSchedule(t *testing.T) {
	ts := testScheduler(10, 0.5, 0.7)
	svc := mustService(t, Config{Scheduler: ts, BatchWindow: -1})
	tree := testTree(t, 21, 6)
	res, err := svc.Schedule(context.Background(), tree)
	if err != nil {
		t.Fatal(err)
	}
	single, err := ts.Schedule(tree)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := sched.EncodeJSON(res.Schedule)
	wantJSON, _ := sched.EncodeJSON(single)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatal("a served group of one differs from TreeSchedule")
	}
}

func TestServiceRejectsInvalidInput(t *testing.T) {
	svc := mustService(t, Config{Scheduler: testScheduler(8, 0.5, 0.7)})
	if _, err := svc.Schedule(context.Background(), nil); err == nil {
		t.Error("nil tree accepted")
	}
	if _, err := svc.Schedule(context.Background(), &plan.TaskTree{}); err == nil {
		t.Error("empty (zero-task) tree accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Error("zero-value scheduler accepted")
	}
	bad := testScheduler(0, 0.5, 0.7)
	if _, err := New(Config{Scheduler: bad}); err == nil {
		t.Error("P = 0 scheduler accepted")
	}
	for _, eps := range []float64{-1, 2, math.NaN(), math.Inf(1)} {
		bad := testScheduler(8, 0.5, 0.7)
		bad.Overlap.Epsilon = eps
		if svc, err := New(Config{Scheduler: bad}); err == nil {
			svc.Close()
			t.Errorf("scheduler with ε = %g accepted", eps)
		}
	}
}

func TestCloseFailsPendingAndRefusesNew(t *testing.T) {
	svc := mustService(t, Config{Scheduler: testScheduler(8, 0.5, 0.7)})
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := svc.Schedule(context.Background(), testTree(t, 31, 4)); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

func TestCloseDrainsInFlightRequests(t *testing.T) {
	svc := mustService(t, Config{
		Scheduler:   testScheduler(8, 0.5, 0.7),
		MaxInFlight: 2,
		BatchWindow: 300 * time.Millisecond,
	})
	errCh := make(chan error, 1)
	go func() {
		_, err := svc.Schedule(context.Background(), testTree(t, 41, 5))
		errCh <- err
	}()
	time.Sleep(30 * time.Millisecond) // request is in its batching window
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	// Close cuts the window short; the already-admitted request is
	// still scheduled (graceful drain), not dropped.
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("in-flight request failed at Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never returned after Close")
	}
}
