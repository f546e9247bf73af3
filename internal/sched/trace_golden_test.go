package sched

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"mdrs/internal/obs"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
	"mdrs/internal/vector"
)

// The trace golden pins what golden_schedules.json cannot: every
// ban-hit count and the (l, sum) key every place event reads before its
// assignment. Each case's JSON-lines trace is held by its SHA-256 and
// event counts; one small case is kept in full so a failure can be
// read, not only detected. Regenerate intentionally with:
//
//	go test ./internal/sched -run TestTraceGolden -update-golden
const (
	traceGoldenPath = "testdata/golden_traces.json"
	traceSmallPath  = "testdata/golden_trace_small.jsonl"
)

// traceGolden is one case's recorded trace.
type traceGolden struct {
	Name    string `json:"name"`
	Events  int    `json:"events"`
	BanHits int    `json:"ban_hits"`
	SHA256  string `json:"sha256"`
}

// traceCase schedules one input with the recorder it is given.
type traceCase struct {
	name string
	run  func(rec obs.Recorder) error
}

// ownPicksOps is a run whose early picks stay cheaper than its later
// ones: a rooted operator loads sites 0..5 to lengths 10..60, then six
// tiny equal clones take them in key order, so each site a clone takes
// still sorts ahead of the next one's pick. The per-clone index walks
// past those earlier picks, and the trace counts them as ban hits.
func ownPicksOps() []*Op {
	home := &Op{ID: 0, Home: []int{0, 1, 2, 3, 4, 5}}
	for k := range home.Home {
		home.Clones = append(home.Clones, vector.Of(float64(10*(k+1)), 1))
	}
	return []*Op{
		home,
		{ID: 1, Clones: repeated(6, []float64{0.5, 0.5}, []float64{0.25, 0.25})},
		{ID: 2, Clones: repeated(3, []float64{0.25, 0.25}, []float64{0.25, 0.25})},
	}
}

func traceCases() []traceCase {
	ops := func(name string, p, d int, sorted bool, ops []*Op) traceCase {
		return traceCase{name: name, run: func(rec obs.Recorder) error {
			_, err := operatorSchedule(context.Background(), p, d, ov(0.5), ops, sorted, rec, 0)
			return err
		}}
	}
	cases := []traceCase{ops("ops/own-picks", 8, 2, true, ownPicksOps())} // kept in full
	tree := func(seed int64, joins, p int) traceCase {
		return traceCase{
			name: fmt.Sprintf("tree/seed=%d/joins=%d/P=%d", seed, joins, p),
			run: func(rec obs.Recorder) error {
				r := rand.New(rand.NewSource(seed))
				tt := plan.MustNewTaskTree(plan.MustExpand(query.MustRandom(r, query.DefaultGenConfig(joins))))
				_, err := traceScheduler(p, 0.5, 0.7, rec).Schedule(tt)
				return err
			},
		}
	}
	cases = append(cases, tree(1, 3, 8))
	for _, p := range []int{24, 128, 300} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, joins := range []int{8, 20, 35} {
				cases = append(cases, tree(seed, joins, p))
			}
		}
	}
	unordered := append(ea1Ops(5, 12, 64),
		&Op{ID: 1000, Clones: repeated(3, []float64{2, 1, 1}, []float64{1, 1, 1}), Home: []int{7, 8, 9}})
	return append(cases,
		ops("ops/ea1/P=128", 128, resource.Dims, true, ea1Ops(4, 20, 128)),
		ops("unordered/ea1/P=64", 64, resource.Dims, false, unordered),
	)
}

// recordTrace runs one case through the JSONL tracer.
func recordTrace(t *testing.T, c traceCase) []byte {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	if err := c.run(tr); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("%s: flush: %v", c.name, err)
	}
	return buf.Bytes()
}

func summarizeTrace(name string, trace []byte) traceGolden {
	g := traceGolden{Name: name, Events: bytes.Count(trace, []byte("\n"))}
	sum := sha256.Sum256(trace)
	g.SHA256 = hex.EncodeToString(sum[:])
	g.BanHits = strings.Count(string(trace), `"type":"ban_hit"`)
	return g
}

func TestTraceGolden(t *testing.T) {
	cases := traceCases()
	got := make([]traceGolden, len(cases))
	var small []byte
	for i, c := range cases {
		trace := recordTrace(t, c)
		if i == 0 {
			small = trace
		}
		got[i] = summarizeTrace(c.name, trace)
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(traceGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(traceSmallPath, small, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d cases and %s", traceGoldenPath, len(got), traceSmallPath)
		return
	}
	want, err := os.ReadFile(traceSmallPath)
	if err != nil {
		t.Fatalf("missing trace golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(small, want) {
		gl, wl := strings.Split(string(small), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d:\n got %s\nwant %s", cases[0].name, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, golden has %d", cases[0].name, len(gl), len(wl))
	}
	data, err := os.ReadFile(traceGoldenPath)
	if err != nil {
		t.Fatalf("missing trace golden (run with -update-golden to create): %v", err)
	}
	var golden []traceGolden
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(got) {
		t.Fatalf("%d trace cases, golden has %d", len(got), len(golden))
	}
	hits := 0
	for i := range golden {
		if got[i] != golden[i] {
			t.Errorf("trace %s: %+v, golden %+v", golden[i].Name, got[i], golden[i])
		}
		hits += got[i].BanHits
	}
	if hits == 0 {
		t.Fatal("no case of the trace golden records a ban hit")
	}
}
