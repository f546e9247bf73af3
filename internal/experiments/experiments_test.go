package experiments

import (
	"strings"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Quick().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{},
		func() Config { c := Quick(); c.Queries = 0; return c }(),
		func() Config { c := Quick(); c.Sites = nil; return c }(),
		func() Config { c := Quick(); c.Sites = []int{0}; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestDefaultMatchesPaperScale(t *testing.T) {
	c := Default()
	if c.Queries != 20 {
		t.Errorf("Queries = %d, want 20", c.Queries)
	}
	if c.Sites[0] != 10 || c.Sites[len(c.Sites)-1] != 140 {
		t.Errorf("Sites = %v, want 10..140", c.Sites)
	}
}

// tiny returns an even smaller config so the full figure suite runs
// quickly in unit tests.
func tiny() Config {
	c := Quick()
	c.Queries = 2
	c.Sites = []int{10, 40}
	return c
}

func checkFigure(t *testing.T, fig *Figure, wantSeries int) {
	t.Helper()
	if len(fig.Series) != wantSeries {
		t.Fatalf("figure %s: %d series, want %d", fig.ID, len(fig.Series), wantSeries)
	}
	for _, s := range fig.Series {
		if len(s.X) == 0 || len(s.X) != len(s.Y) {
			t.Fatalf("figure %s series %q: %d/%d points", fig.ID, s.Name, len(s.X), len(s.Y))
		}
		for i, y := range s.Y {
			if y <= 0 {
				t.Fatalf("figure %s series %q: non-positive y %g at x=%g",
					fig.ID, s.Name, y, s.X[i])
			}
		}
	}
	var sb strings.Builder
	if err := WriteText(&sb, fig); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), fig.ID) {
		t.Fatalf("rendered figure missing ID: %q", sb.String()[:60])
	}
}

func seriesByName(t *testing.T, fig *Figure, name string) Series {
	t.Helper()
	for _, s := range fig.Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("figure %s has no series %q", fig.ID, name)
	return Series{}
}

func TestFig5aShape(t *testing.T) {
	fig, err := Fig5a(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 5)
	// Paper: response drops substantially as f grows; with enough sites
	// TreeSchedule at high f beats Synchronous.
	f3 := seriesByName(t, fig, "TreeSchedule f=0.3")
	f9 := seriesByName(t, fig, "TreeSchedule f=0.9")
	sync := seriesByName(t, fig, "Synchronous")
	last := len(f9.Y) - 1
	if f9.Y[last] >= f3.Y[last] {
		t.Fatalf("f=0.9 (%g) not better than f=0.3 (%g) at max sites",
			f9.Y[last], f3.Y[last])
	}
	if f9.Y[last] >= sync.Y[last] {
		t.Fatalf("TreeSchedule f=0.9 (%g) not better than Synchronous (%g)",
			f9.Y[last], sync.Y[last])
	}
}

func TestFig5bShape(t *testing.T) {
	fig, err := Fig5b(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 8)
	// TreeSchedule consistently beats Synchronous at every ε; the gap is
	// larger for smaller ε (less overlap leaves more idle time to share).
	for _, eps := range []string{"0.1", "0.3", "0.5", "0.7"} {
		ts := seriesByName(t, fig, "TreeSchedule ε="+eps)
		ss := seriesByName(t, fig, "Synchronous ε="+eps)
		for i := range ts.Y {
			if ts.Y[i] >= ss.Y[i] {
				t.Fatalf("ε=%s: TreeSchedule %g not better than Synchronous %g at P=%g",
					eps, ts.Y[i], ss.Y[i], ts.X[i])
			}
		}
	}
	gapLow := seriesByName(t, fig, "Synchronous ε=0.1").Y[0] / seriesByName(t, fig, "TreeSchedule ε=0.1").Y[0]
	gapHigh := seriesByName(t, fig, "Synchronous ε=0.7").Y[0] / seriesByName(t, fig, "TreeSchedule ε=0.7").Y[0]
	if gapLow <= gapHigh {
		t.Fatalf("sharing benefit not larger at low overlap: %.3f vs %.3f", gapLow, gapHigh)
	}
}

func TestFig6aShape(t *testing.T) {
	fig, err := Fig6a(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 4)
	// TreeSchedule wins decisively at every query size and system size,
	// and the improvement does not collapse as queries grow (the paper
	// reports it growing; see EXPERIMENTS.md for the measured trend).
	for _, p := range []string{"20", "80"} {
		ts := seriesByName(t, fig, "TreeSchedule P="+p)
		ss := seriesByName(t, fig, "Synchronous P="+p)
		first := ss.Y[0] / ts.Y[0]
		lastIdx := len(ts.Y) - 1
		last := ss.Y[lastIdx] / ts.Y[lastIdx]
		for i := range ts.Y {
			if ss.Y[i]/ts.Y[i] < 1.5 {
				t.Fatalf("P=%s: improvement only %.3f at %g joins",
					p, ss.Y[i]/ts.Y[i], ts.X[i])
			}
		}
		if last <= first*0.7 {
			t.Fatalf("P=%s: improvement collapsed with query size: %.3f -> %.3f",
				p, first, last)
		}
	}
}

func TestFig6bShape(t *testing.T) {
	fig, err := Fig6b(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 6)
	// Near-optimality: the ratio to OPTBOUND stays far below the
	// worst-case (2d+1) = 7, and TreeSchedule >= the bound everywhere.
	for _, joins := range []string{"20J", "40J"} {
		ratio := seriesByName(t, fig, "ratio "+joins)
		for i, y := range ratio.Y {
			if y < 1-1e-9 {
				t.Fatalf("%s: ratio %g < 1 at P=%g — not a lower bound", joins, y, ratio.X[i])
			}
			if y > 4 {
				t.Fatalf("%s: ratio %g implausibly far from optimal", joins, y)
			}
		}
	}
}

func TestMalleableFigure(t *testing.T) {
	fig, err := Malleable(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 3)
	gf := seriesByName(t, fig, "Malleable GF")
	lb := seriesByName(t, fig, "LB of chosen N")
	for i := range gf.Y {
		if gf.Y[i] < lb.Y[i]-1e-9 {
			t.Fatalf("GF response %g below its own LB %g", gf.Y[i], lb.Y[i])
		}
		if gf.Y[i] > 7*lb.Y[i]+1e-9 {
			t.Fatalf("GF response %g above (2d+1)·LB %g", gf.Y[i], 7*lb.Y[i])
		}
	}
}

func TestOrderAblationFigure(t *testing.T) {
	fig, err := OrderAblation(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 2)
}

func TestShelfAblationFigure(t *testing.T) {
	fig, err := ShelfAblation(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 2)
}

func TestContentionAblationFigure(t *testing.T) {
	fig, err := ContentionAblation(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 3)
	// γ = 0 is the cheapest evaluation; response grows with γ.
	g0 := seriesByName(t, fig, "TreeSchedule @ γ_disk=0.0")
	g3 := seriesByName(t, fig, "TreeSchedule @ γ_disk=0.3")
	for i := range g0.Y {
		if g3.Y[i] < g0.Y[i]-1e-9 {
			t.Fatalf("penalized response %g below base %g at P=%g",
				g3.Y[i], g0.Y[i], g0.X[i])
		}
	}
}

func TestMemoryAblationFigure(t *testing.T) {
	fig, err := MemoryAblation(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	resp := seriesByName(t, fig, "response")
	spill := seriesByName(t, fig, "spilled (MB)")
	// Tightest memory must spill the most and respond slowest (compare
	// the 1 MB point against the A1 point).
	last := len(resp.Y) - 1
	if resp.Y[0] <= resp.Y[last] {
		t.Fatalf("1 MB response %g not worse than infinite %g", resp.Y[0], resp.Y[last])
	}
	if spill.Y[0] <= 0 || spill.Y[last] != 0 {
		t.Fatalf("spills: tight %g, infinite %g", spill.Y[0], spill.Y[last])
	}
}

func TestShapeAblationFigure(t *testing.T) {
	fig, err := ShapeAblation(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 2)
	ts := seriesByName(t, fig, "TreeSchedule")
	ss := seriesByName(t, fig, "Synchronous")
	// Right-deep (x = 2) serializes everything: it must be the slowest
	// shape for TreeSchedule, and TreeSchedule wins on bushy shapes.
	if ts.Y[2] <= ts.Y[0] {
		t.Fatalf("right-deep %g not slower than bushy %g under TreeSchedule",
			ts.Y[2], ts.Y[0])
	}
	if ts.Y[0] >= ss.Y[0] {
		t.Fatalf("bushy: TreeSchedule %g not better than Synchronous %g", ts.Y[0], ss.Y[0])
	}
}

func TestPlanSearchAblationFigure(t *testing.T) {
	fig, err := PlanSearchAblation(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 3)
	first := seriesByName(t, fig, "first plan (two-phase)")
	best := seriesByName(t, fig, "best of 8")
	frac := seriesByName(t, fig, "scheduled fraction")
	for i := range best.Y {
		if best.Y[i] > first.Y[i]+1e-9 {
			t.Fatalf("best-of-K %g worse than first plan %g at P=%g",
				best.Y[i], first.Y[i], best.X[i])
		}
		// The strawman is always scheduled, and pruning is what the
		// search is for: some of the K candidates are scheduled, never
		// more than all of them.
		if frac.Y[i] <= 0 || frac.Y[i] > 1 {
			t.Fatalf("scheduled fraction %g outside (0,1] at P=%g", frac.Y[i], frac.X[i])
		}
	}
}

func TestPipelineAblationFigure(t *testing.T) {
	fig, err := PipelineAblation(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 3)
	ratio := seriesByName(t, fig, "ratio")
	for i, y := range ratio.Y {
		if y < 1-1e-6 {
			t.Fatalf("pipeline sim %g below analytic at P=%g", y, ratio.X[i])
		}
		if y > 2 {
			t.Fatalf("pipeline abstraction error %g implausible at P=%g", y, ratio.X[i])
		}
	}
}

func TestBatchAblationFigure(t *testing.T) {
	c := tiny()
	c.Queries = 4 // the ablation groups queries in fours
	fig, err := BatchAblation(c)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 2)
	serial := seriesByName(t, fig, "back-to-back")
	batch := seriesByName(t, fig, "batched (4 queries)")
	for i := range batch.Y {
		if batch.Y[i] >= serial.Y[i] {
			t.Fatalf("batching did not pay at P=%g: %g vs %g",
				batch.X[i], batch.Y[i], serial.Y[i])
		}
	}
}

func TestBatchAblationNeedsEnoughQueries(t *testing.T) {
	c := tiny()
	c.Queries = 2
	if _, err := BatchAblation(c); err == nil {
		t.Fatal("2-query config accepted for 4-query batches")
	}
}

func TestDeclusterAblationFigure(t *testing.T) {
	fig, err := DeclusterAblation(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 2)
	fl := seriesByName(t, fig, "floating scans")
	ro := seriesByName(t, fig, "declustered scans")
	for i := range fl.Y {
		if ro.Y[i] < fl.Y[i]*0.999 {
			t.Fatalf("rooted scans beat floating at P=%g: %g vs %g",
				fl.X[i], ro.Y[i], fl.Y[i])
		}
	}
}

func TestTable2Rendering(t *testing.T) {
	out := Table2(Quick())
	for _, want := range []string{"1 MIPS", "20 msec", "15 msec", "0.6 usec", "128 bytes", "5000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 2 missing %q:\n%s", want, out)
		}
	}
}

func TestFiguresRejectInvalidConfig(t *testing.T) {
	for _, f := range Figures {
		if _, err := f.Generate(Config{}); err == nil {
			t.Errorf("%s accepted invalid config", f.ID)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	fig := &Figure{
		ID: "x", XLabel: "sites",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Name: "b", X: []float64{1, 2}, Y: []float64{30, 40}},
		},
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, fig); err != nil {
		t.Fatal(err)
	}
	want := "sites,a,b\n1,10,30\n2,20,40\n"
	if sb.String() != want {
		t.Fatalf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestWriteCSVEmpty(t *testing.T) {
	var sb strings.Builder
	if err := WriteCSV(&sb, &Figure{XLabel: "x"}); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "x\n" {
		t.Fatalf("empty CSV = %q", sb.String())
	}
}

func TestWriteTextEmptyFigure(t *testing.T) {
	var sb strings.Builder
	if err := WriteText(&sb, &Figure{ID: "x", Title: "t"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no series") {
		t.Fatalf("empty figure rendering: %q", sb.String())
	}
}
