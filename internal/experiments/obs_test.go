package experiments

import (
	"testing"

	"mdrs/internal/obs"
)

// TestRecorderDoesNotChangeFigures pins the acceptance contract: a
// figure rendered with a recorder attached is byte-identical to the
// untraced run, and the recorder sees the work it watched.
func TestRecorderDoesNotChangeFigures(t *testing.T) {
	c := Quick()
	c.Queries = 2
	c.Sites = []int{10, 40}

	plain := figureCSV(t, Fig5a, c)

	met := obs.NewMetrics()
	traced := c
	traced.Rec = met
	got := figureCSV(t, Fig5a, traced)
	if got != plain {
		t.Fatalf("recorder changed the figure:\nplain:\n%s\ntraced:\n%s", plain, got)
	}

	snap := met.Snapshot()
	if snap.Counters["experiments.figures"] != 1 || snap.Counters["experiments.fig.5a"] != 1 {
		t.Fatalf("figure counters wrong: %v", snap.Counters)
	}
	// Fig5a schedules the workload once per (f, P) point plus the
	// synchronous sweep: (4 f-values + 1) * 2 sites * 2 queries.
	if want := int64((4 + 1) * 2 * 2); snap.Counters["experiments.schedules"] != want {
		t.Fatalf("schedule counter %d != %d", snap.Counters["experiments.schedules"], want)
	}
	h := snap.Histograms["experiments.figure_seconds"]
	if h.Count != 1 || h.Sum <= 0 {
		t.Fatalf("figure timer missing: %+v", h)
	}

	// The ablations count too: 2 policies * 2 sites * 2 queries.
	met = obs.NewMetrics()
	traced.Rec = met
	if _, err := ShelfAblation(traced); err != nil {
		t.Fatal(err)
	}
	if got := met.Snapshot().Counters["experiments.schedules"]; got != 2*2*2 {
		t.Fatalf("shelf ablation schedule counter %d != 8", got)
	}
}

// TestRecorderSafeUnderWorkerPool runs a figure with many workers and a
// shared recorder; meaningful under -race.
func TestRecorderSafeUnderWorkerPool(t *testing.T) {
	c := Quick()
	c.Queries = 4
	c.Sites = []int{10}
	c.Workers = 8
	c.Rec = obs.Multi(obs.NewMetrics(), obs.NewCapture())
	if _, err := Fig6b(c); err != nil {
		t.Fatal(err)
	}
}
