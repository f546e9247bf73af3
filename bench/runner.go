package main

import (
	"bytes"
	"context"
	"math/rand"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// usage is a cumulative reading of what the system under test has
// consumed: process CPU and heap allocations, plus the wall time the
// harness spent on work that is deliberately off the clock. Differences
// between two readings divided by the operations in between give
// throughput_ops_s, cpu_ms_op, allocs_op and alloc_kb_op.
type usage struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	untimed time.Duration
}

func (u usage) sub(v usage) usage {
	return usage{cpu: u.cpu - v.cpu, mallocs: u.mallocs - v.mallocs, bytes: u.bytes - v.bytes, untimed: u.untimed - v.untimed}
}

func (u *usage) add(v usage) {
	u.cpu += v.cpu
	u.mallocs += v.mallocs
	u.bytes += v.bytes
	u.untimed += v.untimed
}

// selfUsage reads the harness process's own consumption. The allocation
// counters come from runtime/metrics rather than runtime.ReadMemStats
// because query_e2e reads them around every untimed data generation and
// ReadMemStats stops the world.
func selfUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: s[0].Value.Uint64(),
		bytes:   s[1].Value.Uint64(),
	}
}

// client is one closed-loop caller: it issues its next operation only
// after the previous one returned.
type client struct {
	rng *rand.Rand
	buf bytes.Buffer // response-body scratch (http_hit)
	lat []time.Duration
}

// The phases of a run. Each seeds its clients differently, so that the
// "fresh" inputs a client draws in one phase were not already seen, and
// cached, in an earlier one.
const (
	phaseWarmup = iota
	phaseTimed
	phaseBaseline
	phaseTraced
)

func newClient(seed int64, phase, id int) *client {
	return &client{rng: rand.New(rand.NewSource(seed*1000003 + int64(phase)*1009 + int64(id)))}
}

// slice is one sub-interval of the timed phase. Throughput and CPU per
// operation are reported as the median over slices: on the
// development host allocation-heavy code ran ±13 % faster or slower from
// one second to the next (a SHA-256 loop did not, so it is the memory
// system the host shares, not the clock), and a median over one-second
// slices is what that leaves standing.
type slice struct {
	wall time.Duration // untimed work excluded
	ops  int64         // successful
	use  usage
}

// measured is the outcome of one phase.
type measured struct {
	slices    []slice
	lat       []time.Duration // successful ops, pooled over clients, sorted
	attempted int64
	failed    int64
}

// driveFor runs all of the workload's clients as closed loops for d,
// read out every step.
func driveFor(ctx context.Context, w workload, seed int64, phase int, d, step time.Duration) (*measured, error) {
	var (
		stop              atomic.Bool
		attempted, failed atomic.Int64
		wg                sync.WaitGroup
	)
	clients := make([]*client, w.clients())
	for i := range clients {
		c := newClient(seed, phase, i)
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() && ctx.Err() == nil {
				lat, ok := w.op(c, nil)
				attempted.Add(1)
				if ok {
					c.lat = append(c.lat, lat)
				} else {
					failed.Add(1)
				}
			}
		}()
	}

	read := func() (time.Time, int64, usage, error) {
		u := selfUsage()
		err := w.adjust(&u)
		return time.Now(), attempted.Load() - failed.Load(), u, err
	}
	m := &measured{}
	t0, ops0, use0, err := read()
	for end := t0.Add(d); err == nil && ctx.Err() == nil && t0.Before(end); {
		select {
		case <-ctx.Done():
		case <-time.After(time.Until(t0.Add(step))):
		}
		var (
			t1   time.Time
			ops1 int64
			use1 usage
		)
		t1, ops1, use1, err = read()
		use := use1.sub(use0)
		m.slices = append(m.slices, slice{wall: t1.Sub(t0) - use.untimed, ops: ops1 - ops0, use: use})
		t0, ops0, use0 = t1, ops1, use1
	}
	stop.Store(true)
	wg.Wait()
	if err == nil {
		err = ctx.Err()
	}
	for _, c := range clients {
		m.lat = append(m.lat, c.lat...)
	}
	sort.Slice(m.lat, func(i, j int) bool { return m.lat[i] < m.lat[j] })
	m.attempted, m.failed = attempted.Load(), failed.Load()
	return m, err
}

// driveOps runs n operations from one client, one after the other: the
// shape of the traced pass and of its untraced baseline, which are
// bounded by count so that their counters repeat exactly.
func driveOps(ctx context.Context, w workload, seed int64, phase int, n int, tr *tracer) (*measured, error) {
	c := newClient(seed, phase, 0)
	m := &measured{}
	for i := 0; i < n && ctx.Err() == nil; i++ {
		lat, ok := w.op(c, tr)
		m.attempted++
		if ok {
			m.lat = append(m.lat, lat)
		} else {
			m.failed++
		}
	}
	sort.Slice(m.lat, func(i, j int) bool { return m.lat[i] < m.lat[j] })
	return m, ctx.Err()
}

// percentile returns the nearest-rank q-quantile of sorted durations,
// in milliseconds.
func percentile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / float64(time.Millisecond)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

// sliceMedian reduces the slices with f and returns the median.
func (m *measured) sliceMedian(f func(slice) float64) float64 {
	v := make([]float64, 0, len(m.slices))
	for _, s := range m.slices {
		if s.ops > 0 {
			v = append(v, f(s))
		}
	}
	return median(v)
}
