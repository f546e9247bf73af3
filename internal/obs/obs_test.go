package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafeHelpers(t *testing.T) {
	// A nil Recorder must absorb every helper without panicking.
	Count(nil, "c", 1)
	Observe(nil, "h", 1.5)
	Emit(nil, Event{Type: EvPlace})
	StartTimer(nil, "t")()
}

func TestTypedNilRecordersAreNoOps(t *testing.T) {
	// A typed-nil concrete recorder behind the interface must degrade to
	// a no-op, not a panic (the classic typed-nil interface trap).
	for _, r := range []Recorder{(*Metrics)(nil), (*Tracer)(nil), (*Capture)(nil)} {
		r.Count("c", 1)
		r.Observe("h", 2)
		r.Event(Event{Type: EvPlace})
	}
	if (*Metrics)(nil).Snapshot().Counters == nil {
		t.Error("nil Metrics snapshot has nil counters map")
	}
	if (*Capture)(nil).Events() != nil {
		t.Error("nil Capture returned events")
	}
	if err := (*Tracer)(nil).Flush(); err != nil {
		t.Errorf("nil Tracer flush: %v", err)
	}
}

func TestMetricsCountersAggregate(t *testing.T) {
	m := NewMetrics()
	m.Count("a", 2)
	m.Count("a", 3)
	m.Count("b", 1)
	m.Event(Event{Type: EvPlace})
	m.Event(Event{Type: EvPlace})
	s := m.Snapshot()
	if s.Counters["a"] != 5 || s.Counters["b"] != 1 {
		t.Fatalf("counters: %v", s.Counters)
	}
	if s.Counters["trace."+EvPlace] != 2 {
		t.Fatalf("event counter: %v", s.Counters)
	}
	if got := s.CounterNames(); len(got) != 3 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("sorted names: %v", got)
	}
}

func TestMetricsHistogramStats(t *testing.T) {
	m := NewMetrics()
	for i := 1; i <= 100; i++ {
		m.Observe("v", float64(i))
	}
	h := m.Snapshot().Histograms["v"]
	if h.Count != 100 {
		t.Fatalf("count = %d", h.Count)
	}
	if h.Min != 1 || h.Max != 100 {
		t.Fatalf("min/max = %g/%g", h.Min, h.Max)
	}
	if math.Abs(h.Mean-50.5) > 1e-9 {
		t.Fatalf("mean = %g", h.Mean)
	}
	// Quantiles are bucket estimates (power-of-two upper bounds), so only
	// sanity-band them: monotone and within the observed range.
	if h.P50 < h.Min || h.P99 > h.Max || h.P50 > h.P90 || h.P90 > h.P99 {
		t.Fatalf("quantiles out of order: p50=%g p90=%g p99=%g", h.P50, h.P90, h.P99)
	}
}

func TestHistogramIsBounded(t *testing.T) {
	// Extreme samples — zero, subnormal, astronomic, NaN — must neither
	// panic nor grow memory: every value lands in one of the fixed
	// buckets.
	m := NewMetrics()
	for _, v := range []float64{0, -5, 1e-300, 1e300, math.Inf(1), math.NaN(), 1} {
		m.Observe("edge", v)
	}
	h := m.Snapshot().Histograms["edge"]
	if h.Count != 7 {
		t.Fatalf("count = %d", h.Count)
	}
	for i := 0; i < histBuckets; i++ {
		if b := bucketOf(bucketUpper(i) * 0.99); b < 0 || b >= histBuckets {
			t.Fatalf("bucket %d out of range", b)
		}
	}
}

func TestTracerEmitsJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Event(Event{Type: EvPhaseOpen, Phase: 0, Ops: 3, Clones: 7})
	tr.Event(Event{Type: EvPlace, Phase: 0, Op: 2, Clone: 1, Site: 4, L: 1.5, Sum: 2.25})
	tr.Count("dropped", 1)   // not part of the trace
	tr.Observe("dropped", 1) // not part of the trace
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	for i, line := range lines {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if e.Seq != int64(i+1) {
			t.Fatalf("line %d seq = %d", i, e.Seq)
		}
	}
	events, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[1].Site != 4 || events[1].L != 1.5 {
		t.Fatalf("round trip: %+v", events)
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, fmt.Errorf("disk full")
	}
	f.n -= len(p)
	return len(p), nil
}

func TestTracerStickyError(t *testing.T) {
	tr := NewTracer(&failWriter{n: 1})
	for i := 0; i < 100; i++ {
		tr.Event(Event{Type: EvPlace, Site: i})
	}
	if err := tr.Flush(); err == nil {
		t.Fatal("write error was swallowed")
	}
	if tr.Err() == nil {
		t.Fatal("Err() lost the sticky error")
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("{\"type\":\"place\"}\nnot json\n")); err == nil {
		t.Fatal("garbage line accepted")
	}
}

func TestCaptureOrdersEvents(t *testing.T) {
	c := NewCapture()
	c.Event(Event{Type: EvPhaseOpen})
	c.Event(Event{Type: EvPlace, Site: 3})
	got := c.Events()
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 || got[1].Site != 3 {
		t.Fatalf("captured: %+v", got)
	}
	// The returned slice is a copy: mutating it must not corrupt the buffer.
	got[0].Type = "mutated"
	if c.Events()[0].Type != EvPhaseOpen {
		t.Fatal("Events() exposed internal storage")
	}
}

func TestTraceAssignments(t *testing.T) {
	events := []Event{
		{Type: EvPhaseOpen, Phase: 0},
		{Type: EvPlace, Phase: 0, Op: 1, Clone: 0, Site: 2},
		{Type: EvPlace, Phase: 0, Op: 1, Clone: 1, Site: 5},
		{Type: EvPlace, Phase: 1, Op: 1, Clone: 0, Site: 7},
		{Type: EvBanHit, Phase: 1, Op: 1, Clone: 0, Banned: 2},
	}
	sites := TraceAssignments(events)
	if len(sites) != 3 {
		t.Fatalf("assignments: %v", sites)
	}
	if sites[PlaceKey{0, 1, 1}] != 5 || sites[PlaceKey{1, 1, 0}] != 7 {
		t.Fatalf("assignments: %v", sites)
	}
}

func TestMultiTeesAndDropsNils(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("empty Multi is not nil")
	}
	m := NewMetrics()
	if Multi(nil, m) != Recorder(m) {
		t.Fatal("single survivor not unwrapped")
	}
	c := NewCapture()
	r := Multi(m, c)
	r.Count("x", 1)
	r.Event(Event{Type: EvPlace})
	if m.Snapshot().Counters["x"] != 1 || len(c.Events()) != 1 {
		t.Fatal("tee lost an observation")
	}
}

func TestStartTimerRecords(t *testing.T) {
	m := NewMetrics()
	stop := StartTimer(m, "t")
	time.Sleep(time.Millisecond)
	stop()
	h := m.Snapshot().Histograms["t"]
	if h.Count != 1 || h.Sum <= 0 {
		t.Fatalf("timer sample: %+v", h)
	}
}

func TestWriteTraceTextRendersEveryKind(t *testing.T) {
	events := []Event{
		{Type: EvPhaseOpen, Phase: 0, Ops: 2, Clones: 4},
		{Type: EvPlace, Phase: 0, Op: 1, Name: "scan(R1)", Clone: 0, Site: 3, L: 0.5, Sum: 0.9},
		{Type: EvPlace, Phase: 0, Op: 2, Clone: 1, Site: 0, Rooted: true},
		{Type: EvBanHit, Phase: 0, Op: 2, Clone: 1, Banned: 1},
		{Type: EvMemSplit, Phase: 0, Op: 2, Clone: 0, Site: 1, Bytes: 100, Free: 60, Spilled: 40, Sigma: 0.4},
		{Type: EvReshape, Op: 3, From: 1, Degree: 2, H: 1.25},
		{Type: EvSelect, LB: 0.75},
		{Type: EvPhaseClose, Phase: 0, Response: 2.5},
		{Type: EvExecPhase, Phase: 0, Response: 2.6},
		{Type: "future_kind"},
	}
	var sb strings.Builder
	if err := WriteTraceText(&sb, events); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"phase 0 open: 2 operators, 4 clones",
		"scan(R1)", "rooted", "ban-set hit", "memory split",
		"reshape: op 3 degree 1 -> 2", "select: parallelization",
		"phase 0 close", "executed", "future_kind",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace text missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentRecording(t *testing.T) {
	// Metrics, Tracer, and Capture sit under the engine's parallel clone
	// execution; hammer one of each from many goroutines (meaningful
	// under `go test -race`, which `make check` runs).
	r := Multi(NewMetrics(), NewTracer(io.Discard), NewCapture())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Count("n", 1)
				r.Observe("v", float64(i))
				r.Event(Event{Type: EvPlace, Op: g, Clone: i})
			}
		}(g)
	}
	wg.Wait()
}

func TestStartDebugExposesPprofAndExpvar(t *testing.T) {
	m := NewMetrics()
	m.Count("hits", 42)
	PublishExpvar("mdrs_test_metrics", m)
	PublishExpvar("mdrs_test_metrics", m) // second publish must not panic

	addr, stop, err := StartDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop(context.Background())
	for _, path := range []string{"/debug/vars", "/debug/pprof/cmdline"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if path == "/debug/vars" && !strings.Contains(string(body), "mdrs_test_metrics") {
			t.Fatalf("expvar output missing published metrics:\n%s", body)
		}
	}
	if _, _, err := StartDebug(addr); err == nil {
		t.Fatal("double listen on same address succeeded")
	}
}
