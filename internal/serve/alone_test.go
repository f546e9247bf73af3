package serve

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"mdrs/internal/obs"
	"mdrs/internal/plan"
)

// gateRecorder is a scheduler recorder whose first Event blocks until
// open is called, holding one schedule in flight; entered is closed
// when that Event arrives.
type gateRecorder struct {
	first, opened sync.Once
	entered       chan struct{}
	release       chan struct{}
}

func newGateRecorder() *gateRecorder {
	return &gateRecorder{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateRecorder) open() { g.opened.Do(func() { close(g.release) }) }

func (g *gateRecorder) Count(string, int64)     {}
func (g *gateRecorder) Observe(string, float64) {}
func (g *gateRecorder) Event(obs.Event) {
	g.first.Do(func() {
		close(g.entered)
		<-g.release
	})
}

// The three groups nothing can join — every request at MaxBatch 1, a
// cache-miss leader, a deadline-pressed request — are scheduled on
// their caller's goroutine, and Close waits for each: it must not
// return while the schedule is held in flight, and the held request
// still gets its schedule.
func TestCloseWaitsForGroupOfOne(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      Config
		deadline time.Duration
	}{
		{name: "MaxBatch=1", cfg: Config{MaxBatch: 1}},
		{name: "cache-miss leader", cfg: Config{CacheSize: 4}},
		{name: "solo deadline", cfg: Config{SoloMargin: time.Hour}, deadline: time.Minute},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gate := newGateRecorder()
			tc.cfg.Scheduler = testScheduler(8, 0.5, 0.7)
			tc.cfg.Scheduler.Rec = gate
			svc := mustService(t, tc.cfg)
			t.Cleanup(gate.open) // before the service's Close, also when the test fails
			ctx := context.Background()
			if tc.deadline > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, tc.deadline)
				defer cancel()
			}
			type outcome struct {
				res *Result
				err error
			}
			tree := testTree(t, 51, 4)
			held := make(chan outcome, 1)
			go func() {
				res, err := svc.Schedule(ctx, tree)
				held <- outcome{res, err}
			}()
			<-gate.entered

			closed := make(chan struct{})
			go func() {
				svc.Close()
				close(closed)
			}()
			select {
			case <-closed:
				t.Fatal("Close returned while a group of one was being scheduled")
			case <-time.After(50 * time.Millisecond):
			}
			gate.open()
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("Close never returned after the schedule was released")
			}
			out := <-held
			if out.err != nil || out.res.Schedule == nil {
				t.Fatalf("held request: result %+v, error %v", out.res, out.err)
			}
			if want := tc.deadline > 0; out.res.Solo != want || len(out.res.Group) != 1 {
				t.Fatalf("held request: solo=%v group=%d, want solo=%v group=1", out.res.Solo, len(out.res.Group), want)
			}
		})
	}
}

// settledGoroutines is the goroutine count once it has held for 10 ms:
// the last goroutines of earlier tests (a finished test's runner) may
// still be exiting.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for held := 0; held < 10; {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			held++
		} else {
			n, held = m, 0
		}
	}
	return n
}

// A cache miss never leaves its caller's goroutine: while one is held
// inside the scheduler the process has the caller's goroutine more than
// before the call and no other, and a thousand sequential misses leave
// none behind.
func TestCacheMissHandsOffToNoGoroutine(t *testing.T) {
	gate := newGateRecorder()
	ts := testScheduler(8, 0.5, 0.7)
	ts.Rec = gate
	svc := mustService(t, Config{Scheduler: ts, CacheSize: 1})
	t.Cleanup(gate.open) // before the service's Close, also when the test fails
	trees := []*plan.TaskTree{testTree(t, 61, 3), testTree(t, 62, 3)}
	ctx := context.Background()

	baseline := settledGoroutines()
	done := make(chan error, 1)
	go func() {
		_, err := svc.Schedule(ctx, trees[0])
		done <- err
	}()
	<-gate.entered
	if n := runtime.NumGoroutine(); n != baseline+1 {
		t.Fatalf("%d goroutines while a cache miss is being scheduled, want the baseline %d plus the caller", n, baseline)
	}
	gate.open()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// A cache of one entry under two alternating plans: every request
	// is a miss.
	for i := 1; i <= 1000; i++ {
		res, err := svc.Schedule(ctx, trees[i%2])
		if err != nil || res.Cached {
			t.Fatalf("request %d: cached=%v, error %v", i, res != nil && res.Cached, err)
		}
	}
	// The held caller above may still be exiting.
	for wait := time.Now().Add(5 * time.Second); runtime.NumGoroutine() != baseline; {
		if time.Now().After(wait) {
			t.Fatalf("%d goroutines after 1000 sequential misses, want the baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
