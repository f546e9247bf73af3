package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"mdrs/internal/optimizer"
)

// span is one timed call recorded by the harness. The spans of one
// operation share Op. A replay span re-executes, after the operation has
// returned, a layer call its Parent is known to make; it runs on the
// same input but outside the parent's interval, so it only contributes
// its duration.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an operation's root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

// tracer keeps the spans of a traced pass in memory; they are written
// out once, when the pass is over. A nil *tracer records nothing, so
// the untraced phases run the same operation code with tr == nil.
//
// The traced pass has a single client, so the tracer needs no lock.
type tracer struct {
	t0    time.Time
	spans []span
	op    int
	// searches collects the optimizer results the traced operations
	// produced, for the workload's own pruning ledger.
	searches []*optimizer.Result
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; parent 0 starts a new operation.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	if parent == 0 {
		t.op++
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// replay runs f as a replay span under parent; untraced, it does nothing.
func (t *tracer) replay(name string, parent int, f func()) {
	if t == nil {
		return
	}
	id := t.begin(name, parent)
	f()
	t.end(id)
	t.spans[id-1].Replay = true
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStat summarises the spans of one name.
type spanStat struct {
	name         string
	count        int
	medianUS     float64
	medianSelfUS float64
	totalNS      int64
	childNS      int64 // summed duration of the spans' children
	replay, root bool
}

// summarise computes, per span name, the duration and the self time: a
// span's duration minus its children's. For a root span the children
// are the calls the operation really made, so what they leave is time
// the harness attributes to no layer. For a layer call the children are
// replays, so what they leave is the layer's own work.
//
// An operation that failed midway leaves spans open; they are skipped.
func (t *tracer) summarise() []*spanStat {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.End != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*spanStat{}
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	var order []*spanStat
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{name: s.Name, replay: s.Replay, root: s.Parent == 0}
			byName[s.Name] = st
			order = append(order, st)
		}
		d := s.End - s.Start
		st.count++
		st.totalNS += d
		st.childNS += child[s.ID]
		durs[s.Name] = append(durs[s.Name], float64(d)/1e3)
		selfs[s.Name] = append(selfs[s.Name], float64(d-child[s.ID])/1e3)
	}
	for _, st := range order {
		st.medianUS = median(durs[st.name])
		st.medianSelfUS = median(selfs[st.name])
	}
	return order
}

// unattributed is the share of the traced operations' time that the
// trace cannot assign to a layer: root-span time under no child span,
// plus, for each kind of layer call, the time by which all its replays
// together exceed all the calls they are meant to explain. Totals, not
// single operations, are compared: one replay that hits a slow moment
// says nothing about where the time of the call went.
func unattributed(stats []*spanStat) float64 {
	var rootNS, lostNS int64
	for _, st := range stats {
		switch {
		case st.root:
			rootNS += st.totalNS
			lostNS += st.totalNS - st.childNS
		case st.childNS > st.totalNS:
			lostNS += st.childNS - st.totalNS
		}
	}
	if rootNS == 0 {
		return 0
	}
	return float64(lostNS) / float64(rootNS)
}

// total returns the summed duration of the spans called name.
func total(stats []*spanStat, name string) float64 {
	for _, st := range stats {
		if st.name == name {
			return float64(st.totalNS)
		}
	}
	return 0
}

func printSpans(w io.Writer, stats []*spanStat) {
	sort.SliceStable(stats, func(i, j int) bool { return stats[i].totalNS > stats[j].totalNS })
	fmt.Fprintf(w, "  %-28s %7s %12s %12s\n", "span", "count", "median_us", "self_us")
	for _, st := range stats {
		name := st.name
		if st.replay {
			name += " (replay)"
		}
		fmt.Fprintf(w, "  %-28s %7d %12.1f %12.1f\n", name, st.count, st.medianUS, st.medianSelfUS)
	}
}
