package obs

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
)

// histBuckets is the fixed bucket count of every histogram: bucket 0
// catches samples below histFloor, bucket i covers
// [histFloor·2^(i-1), histFloor·2^i), and the last bucket is unbounded
// above. 64 power-of-two buckets starting at 1e-9 span from nanoseconds
// to ~5.8·10^9 seconds, so any duration or byte count the repository
// produces lands inside the fixed range — the histogram's memory is
// bounded no matter how many samples it absorbs.
const (
	histBuckets = 64
	histFloor   = 1e-9
)

// histogram is one bounded distribution: exact count/sum/min/max plus
// the fixed geometric buckets quantiles are estimated from. It is plain
// data; the owning Metrics' mutex guards it.
type histogram struct {
	count    int64
	sum      float64
	min, max float64 // ±Inf until the first sample
	buckets  [histBuckets]int64
}

func newHistogram() *histogram {
	return &histogram{min: math.Inf(1), max: math.Inf(-1)}
}

// bucketOf maps a sample to its bucket index.
func bucketOf(v float64) int {
	if v < histFloor || math.IsNaN(v) {
		return 0
	}
	if math.IsInf(v, 1) {
		// int(+Inf) is implementation-defined; pin it to the top bucket.
		return histBuckets - 1
	}
	i := int(math.Floor(math.Log2(v/histFloor))) + 1
	if i < 1 {
		i = 1
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// bucketUpper returns the upper bound of bucket i (the value quantile
// estimates report for samples landing in it).
func bucketUpper(i int) float64 {
	if i <= 0 {
		return histFloor
	}
	return histFloor * math.Pow(2, float64(i))
}

// observe records one sample. A NaN sample compares false, so it
// leaves min and max untouched; quantile clamping keeps it out of
// reports.
func (h *histogram) observe(v float64) {
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// quantile estimates the q-quantile (q in [0,1]) from the buckets,
// clamped to the exact observed [min, max] range.
func (h *histogram) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.buckets {
		seen += c
		if seen >= rank {
			u := bucketUpper(i)
			if u > h.max {
				u = h.max
			}
			if u < h.min {
				u = h.min
			}
			return u
		}
	}
	return h.max
}

// HistogramStats is the JSON-ready summary of one histogram.
type HistogramStats struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// Snapshot is a point-in-time copy of a Metrics recorder, suitable for
// JSON encoding (mdrs-bench -metrics) and expvar publication.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters"`
	Histograms map[string]HistogramStats `json:"histograms"`
}

// Metrics aggregates counters and bounded histograms in memory. The
// zero value is NOT usable; construct with NewMetrics. All methods are
// safe for concurrent use and tolerate a nil receiver (no-op), so a
// typed-nil *Metrics behind the Recorder interface stays harmless.
//
// One mutex guards every counter and histogram. A recording call holds
// it for a map lookup and a few additions, and makes no allocation
// once its name has been seen.
type Metrics struct {
	mu     sync.Mutex
	counts map[string]int64
	events map[string]int64 // by Event.Type; Snapshot adds the "trace." prefix
	hists  map[string]*histogram
}

// NewMetrics returns an empty aggregate recorder.
func NewMetrics() *Metrics {
	return &Metrics{
		counts: map[string]int64{},
		events: map[string]int64{},
		hists:  map[string]*histogram{},
	}
}

// Count implements Recorder.
func (m *Metrics) Count(name string, delta int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.counts[name] += delta
	m.mu.Unlock()
}

// Observe implements Recorder.
func (m *Metrics) Observe(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	h := m.hists[name]
	if h == nil {
		h = newHistogram()
		m.hists[name] = h
	}
	h.observe(v)
	m.mu.Unlock()
}

// Event implements Recorder: metrics reduce the decision trace to one
// counter per event type, named "trace.<type>".
func (m *Metrics) Event(e Event) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.events[e.Type]++
	m.mu.Unlock()
}

// Snapshot returns a deep copy of the current aggregates. The state is
// copied under the lock, so every histogram's fields agree; quantiles
// are computed after it is released.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Histograms: map[string]HistogramStats{},
	}
	if m == nil {
		return s
	}
	m.mu.Lock()
	for k, v := range m.counts {
		s.Counters[k] = v
	}
	for t, v := range m.events {
		s.Counters["trace."+t] += v
	}
	hists := make(map[string]histogram, len(m.hists))
	for k, h := range m.hists {
		hists[k] = *h
	}
	m.mu.Unlock()
	for k, h := range hists {
		s.Histograms[k] = HistogramStats{
			Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
			Mean: h.sum / float64(h.count),
			P50:  h.quantile(0.50), P90: h.quantile(0.90),
			P99: h.quantile(0.99), P999: h.quantile(0.999),
		}
	}
	return s
}

// WriteJSON renders the snapshot as indented JSON with sorted keys
// (encoding/json sorts map keys, so the output is stable for diffing).
func (m *Metrics) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(m.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// CounterNames returns the sorted counter names, for deterministic
// iteration in tests and renderers.
func (s Snapshot) CounterNames() []string {
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
