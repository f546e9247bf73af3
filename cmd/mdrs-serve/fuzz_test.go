package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"mdrs"
)

// FuzzScheduleHandler posts arbitrary bodies to /schedule on a service
// with a schedule cache. Whatever the body, the answer is 200, 400 or
// 413 — a client's input never earns a 5xx — and the service's request
// accounting stays exact: every counted request lands in exactly one
// outcome, and none of them is serve.failed.
//
//	go test ./cmd/mdrs-serve -run '^$' -fuzz FuzzScheduleHandler -fuzztime 30s
func FuzzScheduleHandler(f *testing.F) {
	f.Add(encodePlan(f, 3, 4))
	f.Add([]byte(`{"relation":{"name":"R","tuples":9223372036854775807},"tuples":9223372036854775807}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))

	o := testOptions()
	o.cacheSize = 16
	o.maxBody = 1 << 16
	met := mdrs.NewMetrics()
	svc, err := newService(o, met)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { svc.Close() })
	h := newHandler(svc, met, o.maxBody)

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/schedule", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		cs := met.Snapshot().Counters
		if cs["serve.failed"] != 0 {
			t.Fatalf("serve.failed = %d after body %q", cs["serve.failed"], body)
		}
		outcomes := cs["serve.delivered"] + cs["serve.rejected"] + cs["serve.cancelled"] +
			cs["serve.closed_rejects"] + cs["serve.failed"]
		if cs["serve.requests"] != outcomes {
			t.Fatalf("serve.requests = %d, outcomes sum to %d: %v", cs["serve.requests"], outcomes, cs)
		}
	})
}
