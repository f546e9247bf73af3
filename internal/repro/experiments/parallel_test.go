package experiments

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"mdrs/internal/plan"
)

func figureCSV(t *testing.T, fn func(Config) (*Figure, error), c Config) string {
	t.Helper()
	fig, err := fn(c)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, fig); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// Every figure must render byte-identical CSV with a single worker and
// with a full GOMAXPROCS pool: per-trial work is independent and the
// reductions run in query order. Running this test under -race also
// exercises the worker pool for data races across every figure's trial
// closure (the Makefile `check` target does exactly that).
func TestFiguresDeterministicAcrossWorkers(t *testing.T) {
	for _, f := range Figures {
		t.Run(f.ID, func(t *testing.T) {
			t.Parallel()
			serial := Quick()
			serial.Workers = 1
			pooled := Quick()
			pooled.Workers = runtime.GOMAXPROCS(0)
			got := figureCSV(t, f.Generate, pooled)
			want := figureCSV(t, f.Generate, serial)
			if got != want {
				t.Fatalf("Workers=%d CSV differs from Workers=1:\n--- parallel ---\n%s--- serial ---\n%s",
					pooled.Workers, got, want)
			}
		})
	}
}

// Workers <= 0 must mean "use GOMAXPROCS", not "serial only" and not an
// error, so hand-built Configs from before the field existed keep
// working and keep their output.
func TestWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	c := Quick()
	c.Workers = 1
	c.Sites = []int{10}
	one := figureCSV(t, Fig5a, c)
	c.Workers = 0
	auto := figureCSV(t, Fig5a, c)
	if one != auto {
		t.Fatal("Workers=0 output differs from Workers=1")
	}
}

// What the sweep driver adds to poolFor (whose own tests cover index
// coverage): of several failing trials the lowest-index error is the one
// returned, at any pool width and with its type intact, and a point with
// zero trials runs nothing and fails nothing.
func TestSweepReportsLowestIndexTrialError(t *testing.T) {
	sentinel := errors.New("boom")
	point := func(n int, trial trialFunc) recipe {
		return recipe{
			id: "test", series: []string{"y"}, xs: []float64{0},
			point: func(int, [][]*plan.TaskTree) (int, trialFunc, error) { return n, trial, nil },
		}
	}
	for _, workers := range []int{1, 2, 7, 64} {
		c := Quick()
		c.Workers = workers
		_, err := c.sweep(point(100, func(i int, out []float64) error {
			if i%30 == 17 {
				return fmt.Errorf("trial %d failed", i)
			}
			return nil
		}))
		if err == nil || !strings.Contains(err.Error(), "trial 17") {
			t.Fatalf("workers=%d: err = %v, want the lowest-index failure (trial 17)", workers, err)
		}
		_, err = c.sweep(point(5, func(int, []float64) error { return sentinel }))
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want sentinel", workers, err)
		}
		fig, err := c.sweep(point(0, func(int, []float64) error { return sentinel }))
		if err != nil || len(fig.Series) != 1 || len(fig.Series[0].Y) != 1 {
			t.Fatalf("workers=%d: zero trials: fig %+v, err %v", workers, fig, err)
		}
	}
}

// The committed golden file is `mdrs-bench -quick -csv -workers 1` from
// before the figures moved onto the sweep driver: every entry of Figures,
// in table order, must still render those bytes — serially and with a
// full pool — so no figure's values can drift unnoticed (EXPERIMENTS.md
// quotes them).
func TestFiguresMatchGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/figures_quick.csv")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		c := Quick()
		c.Workers = workers
		var got strings.Builder
		for _, f := range Figures {
			fig, err := f.Generate(c)
			if err != nil {
				t.Fatalf("%s: %v", f.ID, err)
			}
			if fig.ID != f.ID {
				t.Fatalf("table row %q generates figure %q", f.ID, fig.ID)
			}
			if err := WriteCSV(&got, fig); err != nil {
				t.Fatal(err)
			}
		}
		if got.String() != string(want) {
			t.Fatalf("Workers=%d: figures differ from testdata/figures_quick.csv:\n%s", workers, got.String())
		}
	}
}
