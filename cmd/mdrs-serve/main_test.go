package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mdrs"
)

func encodePlan(t testing.TB, seed int64, joins int) []byte {
	t.Helper()
	p := mdrs.MustRandomPlan(rand.New(rand.NewSource(seed)), mdrs.DefaultGenConfig(joins))
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func newTestHandler(t *testing.T, o options) (http.Handler, *mdrs.Metrics) {
	t.Helper()
	met := mdrs.NewMetrics()
	svc, err := newService(o, met)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return newHandler(svc, met, o.maxBody), met
}

func testOptions() options {
	return options{sites: 12, eps: 0.5, f: 0.7, maxBatch: 8, batchWindow: time.Millisecond}
}

func TestScheduleEndpointReturnsSchedule(t *testing.T) {
	h, _ := newTestHandler(t, testOptions())
	plan := encodePlan(t, 7, 5)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/schedule", bytes.NewReader(plan)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Fatalf("Content-Type %q", got)
	}
	for _, hdr := range []string{"X-Mdrs-Batch-Size", "X-Mdrs-Batch-Index", "X-Mdrs-Solo"} {
		if rec.Header().Get(hdr) == "" {
			t.Fatalf("missing header %s", hdr)
		}
	}
	var decoded struct {
		Response float64 `json:"response_seconds"`
		Sites    int     `json:"sites"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid schedule JSON: %v", err)
	}
	if decoded.Sites != 12 || decoded.Response <= 0 {
		t.Fatalf("decoded: %+v", decoded)
	}

	// An uncontended request forms a group of one, so the served body is
	// byte-identical to a direct end-to-end TreeSchedule of the plan.
	p, err := mdrs.DecodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := mdrs.ScheduleQuery(p, mdrs.Options{Sites: 12, Epsilon: 0.5, F: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	want, err := mdrs.EncodeScheduleJSON(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatal("served schedule differs from direct ScheduleQuery")
	}
}

func TestScheduleEndpointServesConcurrentClients(t *testing.T) {
	h, met := newTestHandler(t, options{
		sites: 12, eps: 0.5, f: 0.7,
		maxInFlight: 4, maxBatch: 4, batchWindow: 3 * time.Millisecond,
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	const clients = 12
	errs := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plan := encodePlan(t, int64(i%3+1), 4)
			resp, err := http.Post(srv.URL+"/schedule", "application/json", bytes.NewReader(plan))
			if err != nil {
				errs[i] = err.Error()
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = resp.Status
			}
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e != "" {
			t.Fatalf("client %d: %s", i, e)
		}
	}
	if n := met.Snapshot().Counters["serve.requests"]; n != clients {
		t.Fatalf("serve.requests = %d, want %d", n, clients)
	}
}

func TestScheduleEndpointRejectsBadInput(t *testing.T) {
	h, _ := newTestHandler(t, testOptions())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/schedule", strings.NewReader("{")))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed plan: status %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/schedule", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d", rec.Code)
	}
}

func TestScheduleEndpointShedsWith503(t *testing.T) {
	o := testOptions()
	o.maxInFlight = 1
	o.maxQueue = -1
	o.batchWindow = 200 * time.Millisecond
	h, _ := newTestHandler(t, o)

	plan := encodePlan(t, 9, 4)
	done := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/schedule", bytes.NewReader(plan)))
		done <- rec.Code
	}()
	time.Sleep(30 * time.Millisecond) // first request holds the only slot
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/schedule", bytes.NewReader(plan)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("shed request: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if code := <-done; code != http.StatusOK {
		t.Fatalf("first request: status %d", code)
	}
}

func TestHealthzReportsCounts(t *testing.T) {
	h, _ := newTestHandler(t, testOptions())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var decoded struct {
		Status   string `json:"status"`
		InFlight int    `json:"inflight"`
		Queued   int    `json:"queued"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid healthz JSON: %v", err)
	}
	if decoded.Status != "ok" || decoded.InFlight != 0 || decoded.Queued != 0 {
		t.Fatalf("decoded: %+v", decoded)
	}
}

func TestMetriczExposesServiceCounters(t *testing.T) {
	h, _ := newTestHandler(t, testOptions())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/schedule",
		bytes.NewReader(encodePlan(t, 3, 4))))
	if rec.Code != http.StatusOK {
		t.Fatalf("schedule: status %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metricz: status %d", rec.Code)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("invalid metricz JSON: %v", err)
	}
	if snap.Counters["serve.requests"] != 1 || snap.Counters["serve.batches"] != 1 {
		t.Fatalf("counters: %+v", snap.Counters)
	}
}

func TestNewServiceRejectsBadConfig(t *testing.T) {
	if _, err := newService(options{sites: 8, eps: 2.0, f: 0.7}, nil); err == nil {
		t.Error("ε = 2 accepted")
	}
	if _, err := newService(options{sites: 0, eps: 0.5, f: 0.7}, nil); err == nil {
		t.Error("P = 0 accepted")
	}
}

// With -cache, a repeated plan is answered from the schedule cache:
// X-Mdrs-Cached flips to true, the body stays byte-identical, and
// /metricz exposes the serve.cache_* counters.
func TestScheduleEndpointCacheHeaderAndCounters(t *testing.T) {
	o := testOptions()
	o.cacheSize = 8
	h, _ := newTestHandler(t, o)
	plan := encodePlan(t, 11, 6)

	var bodies [2]string
	for round := 0; round < 2; round++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/schedule", bytes.NewReader(plan)))
		if rec.Code != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, rec.Code, rec.Body)
		}
		want := "false"
		if round == 1 {
			want = "true"
		}
		if got := rec.Header().Get("X-Mdrs-Cached"); got != want {
			t.Fatalf("round %d: X-Mdrs-Cached = %q, want %q", round, got, want)
		}
		bodies[round] = rec.Body.String()
	}
	if bodies[0] != bodies[1] {
		t.Fatal("cached schedule body differs from the computed one")
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricz", nil))
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("invalid metricz JSON: %v", err)
	}
	if snap.Counters["serve.cache_misses"] != 1 || snap.Counters["serve.cache_hits"] != 1 {
		t.Fatalf("cache counters: %+v", snap.Counters)
	}
}

// Without -cache the header reports false and nothing is retained.
func TestScheduleEndpointCacheDisabledByDefault(t *testing.T) {
	h, _ := newTestHandler(t, testOptions())
	plan := encodePlan(t, 11, 6)
	for round := 0; round < 2; round++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/schedule", bytes.NewReader(plan)))
		if rec.Code != http.StatusOK {
			t.Fatalf("round %d: status %d", round, rec.Code)
		}
		if got := rec.Header().Get("X-Mdrs-Cached"); got != "false" {
			t.Fatalf("round %d: X-Mdrs-Cached = %q, want false (cache off)", round, got)
		}
	}
}

// Regression: /healthz used to report "ok" while the service was
// draining after Close, so a load balancer kept routing traffic into
// guaranteed 503s. A draining service must answer 503 with status
// "draining" the moment Close begins.
func TestHealthzReports503WhileDraining(t *testing.T) {
	met := mdrs.NewMetrics()
	svc, err := newService(testOptions(), met)
	if err != nil {
		t.Fatal(err)
	}
	h := newHandler(svc, met, 0)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("live service healthz: status %d", rec.Code)
	}

	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: status %d, want 503", rec.Code)
	}
	var decoded struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid healthz JSON: %v", err)
	}
	if decoded.Status != "draining" {
		t.Fatalf("status %q, want draining", decoded.Status)
	}
}

// The 503 Retry-After is derived from the service's live queue depth
// and batching window, not hardcoded: an idle service's estimate is
// sub-second (rounded up to the 1s floor) and the rendering never emits
// zero, which clients would read as "retry immediately".
func TestRetryAfterSecondsRoundsUpNeverZero(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{time.Millisecond, "1"},
		{999 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1001 * time.Millisecond, "2"},
		{2500 * time.Millisecond, "3"},
		{30 * time.Second, "30"},
		{0, "1"},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.d); got != c.want {
			t.Errorf("retryAfterSeconds(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

// A shed request's Retry-After reflects the service's own estimate.
func TestScheduleErrorDerivesRetryAfterFromService(t *testing.T) {
	met := mdrs.NewMetrics()
	svc, err := newService(testOptions(), met)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	rec := httptest.NewRecorder()
	writeScheduleError(rec, svc, mdrs.ErrOverloaded)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	if got, want := rec.Header().Get("Retry-After"), retryAfterSeconds(svc.RetryAfter()); got != want {
		t.Fatalf("Retry-After %q, want service-derived %q", got, want)
	}
}

// sliceWriter is a ResponseWriter that keeps the very slices the
// handler passes to Write instead of copying them, so a test can tell
// whether two responses were written from one backing array.
type sliceWriter struct {
	header http.Header
	code   int
	writes [][]byte
}

func newSliceWriter() *sliceWriter { return &sliceWriter{header: http.Header{}, code: http.StatusOK} }

func (w *sliceWriter) Header() http.Header  { return w.header }
func (w *sliceWriter) WriteHeader(code int) { w.code = code }
func (w *sliceWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, p)
	return len(p), nil
}

// body returns the single slice a successful /schedule response is
// written from, after checking the status and the Content-Length.
func (w *sliceWriter) body(t *testing.T) []byte {
	t.Helper()
	if w.code != http.StatusOK || len(w.writes) != 1 {
		t.Fatalf("status %d with %d writes", w.code, len(w.writes))
	}
	if got, want := w.header.Get("Content-Length"), strconv.Itoa(len(w.writes[0])); got != want {
		t.Fatalf("Content-Length = %q, want %q", got, want)
	}
	return w.writes[0]
}

// A schedule is encoded once, however many responses carry it: a miss
// and the hits that follow are written from the same bytes, those bytes
// are what EncodeScheduleJSON yields, and Content-Length is explicit.
func TestScheduleEndpointHitsShareOneEncoding(t *testing.T) {
	o := testOptions()
	o.cacheSize = 8
	h, _ := newTestHandler(t, o)
	plan := encodePlan(t, 11, 6)

	p, err := mdrs.DecodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := mdrs.ScheduleQuery(p, mdrs.Options{Sites: o.sites, Epsilon: o.eps, F: o.f})
	if err != nil {
		t.Fatal(err)
	}
	want, err := mdrs.EncodeScheduleJSON(direct)
	if err != nil {
		t.Fatal(err)
	}

	var first []byte
	for round := 0; round < 3; round++ {
		w := newSliceWriter()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/schedule", bytes.NewReader(plan)))
		body := w.body(t)
		if got, want := w.header.Get("X-Mdrs-Cached"), strconv.FormatBool(round > 0); got != want {
			t.Fatalf("round %d: X-Mdrs-Cached = %q, want %q", round, got, want)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("round %d: body differs from EncodeScheduleJSON", round)
		}
		if round == 0 {
			first = body
		} else if &body[0] != &first[0] {
			t.Fatalf("round %d: a cache hit was encoded again", round)
		}
	}
}

// With the cache off, the eight members of one batch all receive the
// same combined schedule and share one encoding of it; the next batch
// gets its own.
func TestScheduleEndpointBatchSharesOneEncoding(t *testing.T) {
	const members = 8
	// The window never expires within the test: a group dispatches when
	// its eighth member arrives.
	h, _ := newTestHandler(t, options{
		sites: 12, eps: 0.5, f: 0.7,
		maxInFlight: members, maxBatch: members, batchWindow: time.Minute,
	})
	batch := func() []byte {
		writers := make([]*sliceWriter, members)
		var wg sync.WaitGroup
		for i := range writers {
			writers[i] = newSliceWriter()
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				plan := encodePlan(t, int64(i+1), 3)
				h.ServeHTTP(writers[i], httptest.NewRequest(http.MethodPost, "/schedule", bytes.NewReader(plan)))
			}(i)
		}
		wg.Wait()
		first := writers[0].body(t)
		for i, w := range writers {
			body := w.body(t)
			if got := w.header.Get("X-Mdrs-Batch-Size"); got != strconv.Itoa(members) {
				t.Fatalf("member %d: X-Mdrs-Batch-Size = %q, want %d", i, got, members)
			}
			if &body[0] != &first[0] {
				t.Fatalf("member %d was encoded separately from member 0", i)
			}
		}
		return first
	}
	if a, b := batch(), batch(); &a[0] == &b[0] {
		t.Fatal("two batches share one encoding with the cache off")
	}
}
