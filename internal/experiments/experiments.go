// Package experiments regenerates every figure of the paper's
// experimental evaluation (Section 6) plus the ablations listed in
// DESIGN.md. Each figure sweeps the paper's parameters over a fixed,
// seeded workload of random bushy plans and reports average response
// times, exactly as the paper does: twenty random queries per size,
// 3-dimensional sites (CPU, disk, network interface), and the Table 2
// cost parameters. Every figure is the same experiment, so each is a
// recipe handed to one sweep driver (Config.sweep); Figures lists them.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"

	"mdrs/internal/baseline"
	"mdrs/internal/contention"
	"mdrs/internal/costmodel"
	"mdrs/internal/malleable"
	"mdrs/internal/memsched"
	"mdrs/internal/obs"
	"mdrs/internal/opt"
	"mdrs/internal/optimizer"
	"mdrs/internal/par"
	"mdrs/internal/pipesim"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
)

// Config controls workload scale; the zero value is unusable — use
// Default or Quick.
type Config struct {
	Model costmodel.Model
	// Queries is the number of random plans averaged per data point
	// (the paper uses 20).
	Queries int
	// Seed makes the workloads reproducible.
	Seed int64
	// Sites is the system-size sweep for figures with P on the x-axis.
	Sites []int
	// Workers bounds the goroutine pool that fans out the per-query
	// trials of each data point. Values <= 0 mean GOMAXPROCS. Every
	// figure is byte-identical across worker counts: trials are
	// independent (randomized trials derive a private per-query seed) and
	// per-point aggregation always reduces in query order.
	Workers int
	// Rec, when non-nil, receives counters and a timing histogram for the
	// regeneration run (figures regenerated, schedules computed — one per
	// raw value a trial reports — and per-figure wall clock). It is
	// strictly observational: figures and their CSV renderings are
	// byte-identical with or without it.
	Rec obs.Recorder
}

// Default reproduces the paper's experimental scale: 20 queries per
// point and system sizes 10–140.
func Default() Config {
	return Config{
		Model:   costmodel.Default(),
		Queries: 20,
		Seed:    1996, // SIGMOD '96
		Sites:   []int{10, 20, 40, 60, 80, 100, 120, 140},
		Workers: runtime.GOMAXPROCS(0),
	}
}

// Quick is a scaled-down configuration for smoke tests and benchmarks.
func Quick() Config {
	return Config{
		Model:   costmodel.Default(),
		Queries: 4,
		Seed:    1996,
		Sites:   []int{10, 40, 80, 140},
		Workers: runtime.GOMAXPROCS(0),
	}
}

// Validate reports the first nonsensical configuration field.
func (c Config) Validate() error {
	if err := c.Model.Params.Validate(); err != nil {
		return err
	}
	if c.Queries <= 0 {
		return fmt.Errorf("experiments: non-positive query count %d", c.Queries)
	}
	if len(c.Sites) == 0 {
		return fmt.Errorf("experiments: empty site sweep")
	}
	for _, p := range c.Sites {
		if p <= 0 {
			return fmt.Errorf("experiments: non-positive site count %d", p)
		}
	}
	return nil
}

// seedStride separates the derived per-query seed streams from the
// per-point `c.Seed + joins` / `c.Seed + p` workload seeds, so no two
// trials (and no trial and workload) ever share a generator state.
const seedStride = 1_000_003

// trialSeed derives the private seed of trial q within the stream
// identified by base (a figure-specific function of the data point).
func (c Config) trialSeed(base, q int64) int64 {
	return c.Seed + base + (q+1)*seedStride
}

// Series is one curve of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a regenerated table/figure: named series over a shared
// x-axis meaning.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Figures is the one list of the figures, in the order `mdrs-bench -fig
// all` prints them. A new figure is one recipe below and one row here.
var Figures = []struct {
	ID       string
	Generate func(Config) (*Figure, error)
}{
	{"5a", Fig5a},
	{"5b", Fig5b},
	{"6a", Fig6a},
	{"6b", Fig6b},
	{"malleable", Malleable},
	{"order", OrderAblation},
	{"shelf", ShelfAblation},
	{"contention", ContentionAblation},
	{"memory", MemoryAblation},
	{"shape", ShapeAblation},
	{"plansearch", PlanSearchAblation},
	{"pipeline", PipelineAblation},
	{"batch", BatchAblation},
	{"decluster", DeclusterAblation},
}

// trialFunc runs trial i of one data point and fills out, its own row of
// raw values. Trials of a point are independent and may run concurrently.
type trialFunc func(i int, out []float64) error

// recipe is one figure as data: what the axes and curves are called,
// which x values the sweep visits, and what one trial at one x measures.
type recipe struct {
	id, title, xlabel, ylabel string

	series []string  // curve names, in output order
	xs     []float64 // the x-axis every series shares; nil means c.Sites
	joins  []int     // query sizes whose workloads are generated before the sweep
	cols   int       // raw values per trial; zero means one per series
	// point prepares data point xi — trees[k] is the workload of joins[k] —
	// and returns its trial count and trial body.
	point func(xi int, trees [][]*plan.TaskTree) (n int, trial trialFunc, err error)
	// derive turns the column sums over n trials into one y per series;
	// nil means the column means.
	derive func(sums []float64, n int) []float64
}

// sweep is the one experiment loop: validate, generate the workloads,
// and at every x run the point's trials across the worker pool, reduce
// them in trial order and append one y to every series. Trials hand
// their values back positionally and the sums are taken serially, so a
// figure — and which of several trial errors is reported, the one with
// the lowest index — is identical for any pool width.
func (c Config) sweep(r recipe) (*Figure, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	obs.Count(c.Rec, "experiments.figures", 1)
	obs.Count(c.Rec, "experiments.fig."+r.id, 1)
	defer obs.StartTimer(c.Rec, "experiments.figure_seconds")()

	trees := make([][]*plan.TaskTree, len(r.joins))
	for k, joins := range r.joins {
		var err error
		if trees[k], err = c.workload(joins); err != nil {
			return nil, err
		}
	}
	xs, cols := r.xs, r.cols
	if xs == nil {
		for _, p := range c.Sites {
			xs = append(xs, float64(p))
		}
	}
	if cols == 0 {
		cols = len(r.series)
	}
	fig := &Figure{ID: r.id, Title: r.title, XLabel: r.xlabel, YLabel: r.ylabel}
	for _, name := range r.series {
		fig.Series = append(fig.Series, Series{Name: name, X: append([]float64(nil), xs...)})
	}
	for xi := range xs {
		n, trial, err := r.point(xi, trees)
		if err != nil {
			return nil, err
		}
		raw := make([]float64, n*cols)
		errs := make([]error, n)
		par.For(par.Workers(c.Workers), n, func(i int) {
			errs[i] = trial(i, raw[i*cols:(i+1)*cols])
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		obs.Count(c.Rec, "experiments.schedules", int64(n*cols))
		sums := make([]float64, cols)
		for i := 0; i < n; i++ {
			for k := range sums {
				sums[k] += raw[i*cols+k]
			}
		}
		ys := sums
		if r.derive != nil {
			ys = r.derive(sums, n)
		} else {
			for k := range ys {
				ys[k] /= float64(n)
			}
		}
		for k := range fig.Series {
			fig.Series[k].Y = append(fig.Series[k].Y, ys[k])
		}
	}
	return fig, nil
}

// workload returns the fixed plan set for a query size. All figures
// share plans for a given (seed, joins), so curves are comparable.
func (c Config) workload(joins int) ([]*plan.TaskTree, error) {
	r := rand.New(rand.NewSource(c.Seed + int64(joins)))
	plans, err := query.Workload(r, query.DefaultGenConfig(joins), c.Queries)
	if err != nil {
		return nil, err
	}
	trees := make([]*plan.TaskTree, len(plans))
	for i, p := range plans {
		ot, err := plan.Expand(p)
		if err != nil {
			return nil, err
		}
		if trees[i], err = plan.NewTaskTree(ot); err != nil {
			return nil, err
		}
	}
	return trees, nil
}

// seriesNames formats one series name per value.
func seriesNames(format string, vs []float64) []string {
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = fmt.Sprintf(format, v)
	}
	return names
}

// treeScheduler is the TreeSchedule configuration of one data point.
func (c Config) treeScheduler(p int, eps, f float64) sched.TreeScheduler {
	return sched.TreeScheduler{Model: c.Model, Overlap: resource.MustOverlap(eps), P: p, F: f}
}

// treeResponse is the TreeSchedule response time of one tree.
func treeResponse(ts sched.TreeScheduler, tt *plan.TaskTree) (float64, error) {
	s, err := ts.Schedule(tt)
	if err != nil {
		return 0, err
	}
	return s.Response, nil
}

// syncResponse is the SYNCHRONOUS response time of one tree.
func (c Config) syncResponse(tt *plan.TaskTree, p int, eps float64) (float64, error) {
	s, err := baseline.Synchronous{Model: c.Model, Overlap: resource.MustOverlap(eps), P: p}.Schedule(tt)
	if err != nil {
		return 0, err
	}
	return s.Response, nil
}

// Fig5a regenerates Figure 5(a): the effect of the granularity
// parameter f on TREESCHEDULE for 40-join queries at 30% resource
// overlap, against SYNCHRONOUS (which f does not affect).
func Fig5a(c Config) (*Figure, error) {
	const joins, eps = 40, 0.3
	fs := []float64{0.3, 0.5, 0.7, 0.9}
	return c.sweep(recipe{
		id:     "5a",
		title:  fmt.Sprintf("Effect of granularity parameter f (%d joins, ε = %.1f)", joins, eps),
		xlabel: "sites", ylabel: "avg response time (s)",
		series: append(seriesNames("TreeSchedule f=%.1f", fs), "Synchronous"),
		joins:  []int{joins},
		point: func(xi int, w [][]*plan.TaskTree) (int, trialFunc, error) {
			p, trees := c.Sites[xi], w[0]
			return len(trees), func(i int, out []float64) (err error) {
				for k, f := range fs {
					if out[k], err = treeResponse(c.treeScheduler(p, eps, f), trees[i]); err != nil {
						return err
					}
				}
				out[len(fs)], err = c.syncResponse(trees[i], p, eps)
				return err
			}, nil
		},
	})
}

// Fig5b regenerates Figure 5(b): the effect of the resource overlap
// parameter ε on both algorithms, with f fixed at 0.7 (40-join queries).
func Fig5b(c Config) (*Figure, error) {
	const joins, f = 40, 0.7
	epss := []float64{0.1, 0.3, 0.5, 0.7}
	var names []string
	for _, eps := range epss {
		names = append(names, fmt.Sprintf("TreeSchedule ε=%.1f", eps), fmt.Sprintf("Synchronous ε=%.1f", eps))
	}
	return c.sweep(recipe{
		id:     "5b",
		title:  fmt.Sprintf("Effect of resource overlap ε (%d joins, f = %.1f)", joins, f),
		xlabel: "sites", ylabel: "avg response time (s)",
		series: names,
		joins:  []int{joins},
		point: func(xi int, w [][]*plan.TaskTree) (int, trialFunc, error) {
			p, trees := c.Sites[xi], w[0]
			return len(trees), func(i int, out []float64) (err error) {
				for k, eps := range epss {
					if out[2*k], err = treeResponse(c.treeScheduler(p, eps, f), trees[i]); err != nil {
						return err
					}
					if out[2*k+1], err = c.syncResponse(trees[i], p, eps); err != nil {
						return err
					}
				}
				return nil
			}, nil
		},
	})
}

// Fig6a regenerates Figure 6(a): the effect of query size for two
// system sizes (20 and 80 sites) at ε = 0.5, f = 0.7.
func Fig6a(c Config) (*Figure, error) {
	const eps, f = 0.5, 0.7
	ps := []int{20, 80}
	var names []string
	for _, p := range ps {
		names = append(names, fmt.Sprintf("TreeSchedule P=%d", p), fmt.Sprintf("Synchronous P=%d", p))
	}
	return c.sweep(recipe{
		id:     "6a",
		title:  "Effect of query size (ε = 0.5, f = 0.7)",
		xlabel: "joins", ylabel: "avg response time (s)",
		series: names,
		xs:     []float64{10, 20, 30, 40, 50},
		joins:  []int{10, 20, 30, 40, 50},
		point: func(xi int, w [][]*plan.TaskTree) (int, trialFunc, error) {
			trees := w[xi]
			return len(trees), func(i int, out []float64) (err error) {
				for k, p := range ps {
					if out[2*k], err = treeResponse(c.treeScheduler(p, eps, f), trees[i]); err != nil {
						return err
					}
					if out[2*k+1], err = c.syncResponse(trees[i], p, eps); err != nil {
						return err
					}
				}
				return nil
			}, nil
		},
	})
}

// Fig6b regenerates Figure 6(b): average TREESCHEDULE performance
// against the OPTBOUND lower bound on the optimal CG_f execution, for
// 20- and 40-join queries (f = 0.7, ε = 0.5). A ratio series per query
// size makes the near-optimality immediately readable.
func Fig6b(c Config) (*Figure, error) {
	const eps, f = 0.5, 0.7
	sizes := []int{20, 40}
	var names []string
	for _, joins := range sizes {
		names = append(names, fmt.Sprintf("TreeSchedule %dJ", joins),
			fmt.Sprintf("OptBound %dJ", joins), fmt.Sprintf("ratio %dJ", joins))
	}
	return c.sweep(recipe{
		id:     "6b",
		title:  "TreeSchedule vs optimal lower bound (f = 0.7, ε = 0.5)",
		xlabel: "sites", ylabel: "avg response time (s); ratio series unitless",
		series: names,
		joins:  sizes,
		cols:   2 * len(sizes),
		point: func(xi int, w [][]*plan.TaskTree) (int, trialFunc, error) {
			p := c.Sites[xi]
			return c.Queries, func(i int, out []float64) (err error) {
				for k, trees := range w {
					if out[2*k], err = treeResponse(c.treeScheduler(p, eps, f), trees[i]); err != nil {
						return err
					}
					if out[2*k+1], err = opt.Bound(trees[i], c.Model, resource.MustOverlap(eps), p, f); err != nil {
						return err
					}
				}
				return nil
			}, nil
		},
		// The ratio is mean response ÷ mean bound, not a mean of ratios.
		derive: func(sums []float64, n int) []float64 {
			var ys []float64
			for k := range sizes {
				yt, yb := sums[2*k]/float64(n), sums[2*k+1]/float64(n)
				ys = append(ys, yt, yb, yt/yb)
			}
			return ys
		},
	})
}

// Malleable regenerates ablation A1: the Section 7 malleable scheduler
// against the CG_f parallelization rule on sets of independent
// operators (one set per workload plan: the floating operators of its
// first phase).
func Malleable(c Config) (*Figure, error) {
	const joins, eps, f = 20, 0.5, 0.7
	return c.sweep(recipe{
		id:     "malleable",
		title:  fmt.Sprintf("Malleable (Section 7) vs CG_f parallelization (%d joins, ε = %.1f, f = %.1f)", joins, eps, f),
		xlabel: "sites", ylabel: "avg response time of first phase (s)",
		series: []string{"Malleable GF", fmt.Sprintf("CoarseGrain f=%.1f", f), "LB of chosen N"},
		joins:  []int{joins},
		point: func(xi int, w [][]*plan.TaskTree) (int, trialFunc, error) {
			ms := malleable.Scheduler{Model: c.Model, Overlap: resource.MustOverlap(eps), P: c.Sites[xi]}
			return len(w[0]), func(i int, out []float64) error {
				var ops []malleable.Operator
				for _, op := range firstPhase(w[0][i]) {
					ops = append(ops, malleable.Operator{ID: op.ID, Cost: c.Model.Cost(op.Spec)})
				}
				resM, err := ms.Schedule(ops)
				if err != nil {
					return err
				}
				resC, err := ms.ScheduleFixed(ops, ms.CoarseGrainParallelization(ops, f))
				if err != nil {
					return err
				}
				out[0], out[1], out[2] = resM.Schedule.Response, resC.Schedule.Response, resM.LB
				return nil
			}, nil
		},
	})
}

// firstPhase lists the operators of a task tree's first phase.
func firstPhase(tt *plan.TaskTree) []*plan.Operator {
	var ops []*plan.Operator
	for _, tk := range tt.Phases()[0] {
		ops = append(ops, tk.Ops...)
	}
	return ops
}

// OrderAblation regenerates ablation A5: the value of the
// non-increasing l(w̄) list order. It compares OperatorSchedule with the
// paper's LPT-style order against the same packing rule fed in raw
// operator order, on the first phase of each workload plan.
func OrderAblation(c Config) (*Figure, error) {
	const joins, eps, f = 40, 0.5, 0.7
	ov := resource.MustOverlap(eps)
	return c.sweep(recipe{
		id:     "order",
		title:  "List-order ablation: sorted vs arrival order (first phase)",
		xlabel: "sites", ylabel: "avg response time (s)",
		series: []string{"sorted (paper)", "arrival order"},
		joins:  []int{joins},
		point: func(xi int, w [][]*plan.TaskTree) (int, trialFunc, error) {
			p, trees := c.Sites[xi], w[0]
			return len(trees), func(i int, out []float64) error {
				var ops []*sched.Op // the first phase's operators at their CG_f degrees
				for _, op := range firstPhase(trees[i]) {
					cost := c.Model.Cost(op.Spec)
					n := c.Model.Degree(cost, f, p, ov)
					ops = append(ops, &sched.Op{ID: op.ID, Clones: c.Model.Clones(cost, n)})
				}
				rs, err := sched.OperatorSchedule(p, resource.Dims, ov, ops)
				if err != nil {
					return err
				}
				rr, err := sched.OperatorScheduleUnordered(p, resource.Dims, ov, ops)
				if err != nil {
					return err
				}
				out[0], out[1] = rs.Response, rr.Response
				return nil
			}, nil
		},
	})
}

// ShelfAblation regenerates ablation A7: the MinShelf (paper) phase
// policy against the EarliestShelf alternative, under TreeSchedule.
func ShelfAblation(c Config) (*Figure, error) {
	const joins, eps, f = 30, 0.5, 0.7
	return c.sweep(recipe{
		id:     "shelf",
		title:  fmt.Sprintf("Phase policy ablation: MinShelf vs EarliestShelf (%d joins, ε = %.1f, f = %.1f)", joins, eps, f),
		xlabel: "sites", ylabel: "avg response time (s)",
		series: []string{"MinShelf (paper)", "EarliestShelf"},
		joins:  []int{joins},
		point: func(xi int, w [][]*plan.TaskTree) (int, trialFunc, error) {
			minShelf := c.treeScheduler(c.Sites[xi], eps, f)
			earliest := minShelf
			earliest.Policy = plan.EarliestShelf
			return len(w[0]), func(i int, out []float64) (err error) {
				if out[0], err = treeResponse(minShelf, w[0][i]); err != nil {
					return err
				}
				out[1], err = treeResponse(earliest, w[0][i])
				return err
			}, nil
		},
	})
}

// ContentionAblation regenerates ablation A8: the cost of assumption
// A2's free time-sharing when disks share poorly (γ on the disk
// dimension), and how much a penalty-aware evaluation recovers.
func ContentionAblation(c Config) (*Figure, error) {
	const joins, eps, f = 20, 0.5, 0.7
	ov := resource.MustOverlap(eps)
	gammas := []float64{0, 0.1, 0.3}
	return c.sweep(recipe{
		id:     "contention",
		title:  fmt.Sprintf("Disk time-sharing penalty (%d joins, ε = %.1f, f = %.1f)", joins, eps, f),
		xlabel: "sites", ylabel: "avg response time (s)",
		series: seriesNames("TreeSchedule @ γ_disk=%.1f", gammas),
		joins:  []int{joins},
		point: func(xi int, w [][]*plan.TaskTree) (int, trialFunc, error) {
			ts := c.treeScheduler(c.Sites[xi], eps, f)
			return len(w[0]), func(i int, out []float64) error {
				s, err := ts.Schedule(w[0][i])
				if err != nil {
					return err
				}
				for k, g := range gammas {
					if out[k], err = contention.EvalSchedule(ov, contention.DiskOnly(resource.Dims, g), s); err != nil {
						return err
					}
				}
				return nil
			}, nil
		},
	})
}

// MemoryAblation regenerates ablation A9: response time of the
// memory-aware TreeSchedule (internal/memsched) as per-site memory
// shrinks from infinite (assumption A1) to 1 MB.
func MemoryAblation(c Config) (*Figure, error) {
	const joins, eps, f, p, mb = 20, 0.5, 0.7, 32, 1 << 20
	caps := []float64{1, 2, 4, 8, 16, 64, math.Inf(1)}
	return c.sweep(recipe{
		id:     "memory",
		title:  fmt.Sprintf("Memory-aware scheduling (%d joins, P = %d, ε = %.1f, f = %.1f)", joins, p, eps, f),
		xlabel: "per-site memory (MB)", ylabel: "avg response time (s); spill series in MB",
		series: []string{"response", "spilled (MB)"},
		xs:     []float64{1, 2, 4, 8, 16, 64, 1024}, // the A1 point is plotted at the right edge
		joins:  []int{joins},
		point: func(xi int, w [][]*plan.TaskTree) (int, trialFunc, error) {
			s := memsched.Scheduler{
				Model: c.Model, Overlap: resource.MustOverlap(eps),
				P: p, F: f, MemoryBytes: caps[xi] * mb,
			}
			return len(w[0]), func(i int, out []float64) error {
				res, err := s.Schedule(w[0][i])
				if err != nil {
					return err
				}
				out[0], out[1] = res.Response, res.TotalSpilledBytes
				return nil
			}, nil
		},
		derive: func(sums []float64, n int) []float64 {
			return []float64{sums[0] / float64(n), sums[1] / float64(n) / mb}
		},
	})
}

// ShapeAblation regenerates ablation A10: TreeSchedule and Synchronous
// across plan shapes (random bushy, left-deep, right-deep, balanced) at
// fixed query size — the bushy-vs-deep debate of the paper's related
// work, priced under the multi-dimensional model.
func ShapeAblation(c Config) (*Figure, error) {
	const joins, eps, f, p = 20, 0.5, 0.7, 40
	shapes := []query.Shape{query.RandomBushy, query.LeftDeep, query.RightDeep, query.Balanced}
	return c.sweep(recipe{
		id:     "shape",
		title:  fmt.Sprintf("Plan shape ablation (%d joins, P = %d, ε = %.1f, f = %.1f)", joins, p, eps, f),
		xlabel: "shape (0=bushy 1=left-deep 2=right-deep 3=balanced)", ylabel: "avg response time (s)",
		series: []string{"TreeSchedule", "Synchronous"},
		xs:     []float64{0, 1, 2, 3},
		point: func(xi int, _ [][]*plan.TaskTree) (int, trialFunc, error) {
			// Each trial owns a derived seed, so plan generation is
			// independent of its neighbors and identical at any pool width.
			return c.Queries, func(q int, out []float64) error {
				r := rand.New(rand.NewSource(c.trialSeed(int64(joins)+int64(xi), int64(q))))
				pl, err := query.RandomShaped(r, query.DefaultGenConfig(joins), shapes[xi])
				if err != nil {
					return err
				}
				tt, err := plan.NewTaskTree(plan.MustExpand(pl))
				if err != nil {
					return err
				}
				if out[0], err = treeResponse(c.treeScheduler(p, eps, f), tt); err != nil {
					return err
				}
				out[1], err = c.syncResponse(tt, p, eps)
				return err
			}, nil
		},
	})
}

// PlanSearchAblation regenerates ablation A11: two-phase optimization
// (schedule the first random plan) against the bound-pruned
// scheduler-in-the-loop best-of-K search, plus the fraction of the K
// candidates the search still fully schedules. The search's winner is
// the unpruned winner by construction; the identity corpus in
// internal/optimizer pins that.
func PlanSearchAblation(c Config) (*Figure, error) {
	const joins, eps, f, k = 15, 0.5, 0.7, 8
	return c.sweep(recipe{
		id:     "plansearch",
		title:  fmt.Sprintf("Bound-pruned plan search, best of %d (%d joins, ε = %.1f, f = %.1f)", k, joins, eps, f),
		xlabel: "sites", ylabel: "avg response time (s); scheduled-fraction series unitless",
		series: []string{
			"first plan (two-phase)",
			fmt.Sprintf("best of %d", k),
			"scheduled fraction",
		},
		point: func(xi int, _ [][]*plan.TaskTree) (int, trialFunc, error) {
			p := c.Sites[xi]
			search := optimizer.Search{
				Model: c.Model, Overlap: resource.MustOverlap(eps),
				P: p, F: f, Candidates: k,
			}
			return c.Queries, func(q int, out []float64) error {
				// The trial's generator feeds both the relation catalog and
				// the plan search.
				r := rand.New(rand.NewSource(c.trialSeed(int64(p), int64(q))))
				rels, err := optimizer.RandomRelations(r, joins+1, 1_000, 100_000)
				if err != nil {
					return err
				}
				res, err := search.Best(r, rels)
				if err != nil {
					return err
				}
				out[0] = res.Candidates[0].Schedule.Response
				out[1] = res.Best.Schedule.Response
				out[2] = float64(res.Scheduled) / float64(res.Enumerated)
				return nil
			}, nil
		},
	})
}

// PipelineAblation regenerates ablation A12: the error of the paper's
// "pipelines are just concurrency" abstraction, measured by replaying
// TreeSchedule schedules through the explicit dataflow simulator of
// internal/pipesim.
func PipelineAblation(c Config) (*Figure, error) {
	const joins, eps, f = 15, 0.5, 0.7
	return c.sweep(recipe{
		id:     "pipeline",
		title:  fmt.Sprintf("Pipeline-abstraction error (%d joins, ε = %.1f, f = %.1f)", joins, eps, f),
		xlabel: "sites", ylabel: "avg response time (s); ratio series unitless",
		series: []string{"analytic (Eq. 3)", "pipeline dataflow sim", "ratio"},
		joins:  []int{joins},
		cols:   2,
		point: func(xi int, w [][]*plan.TaskTree) (int, trialFunc, error) {
			ts := c.treeScheduler(c.Sites[xi], eps, f)
			return len(w[0]), func(i int, out []float64) error {
				s, err := ts.Schedule(w[0][i])
				if err != nil {
					return err
				}
				res, err := pipesim.Simulate(ts.Overlap, s, pipesim.Config{Steps: 400})
				if err != nil {
					return err
				}
				out[0], out[1] = res.Analytic, res.Simulated
				return nil
			}, nil
		},
		// The ratio is total simulated ÷ total analytic time.
		derive: func(sums []float64, n int) []float64 {
			return []float64{sums[0] / float64(n), sums[1] / float64(n), sums[1] / sums[0]}
		},
	})
}

// BatchAblation regenerates ablation A13: scheduling a batch of Q
// independent queries together (inter-query resource sharing) against
// running them back to back.
func BatchAblation(c Config) (*Figure, error) {
	const joins, eps, f, batch = 10, 0.5, 0.7, 4
	return c.sweep(recipe{
		id:     "batch",
		title:  fmt.Sprintf("Multi-query batches of %d (%d joins each, ε = %.1f, f = %.1f)", batch, joins, eps, f),
		xlabel: "sites", ylabel: "avg makespan of one batch (s)",
		series: []string{"back-to-back", fmt.Sprintf("batched (%d queries)", batch)},
		joins:  []int{joins},
		point: func(xi int, w [][]*plan.TaskTree) (int, trialFunc, error) {
			trees := w[0]
			if len(trees) < batch {
				return 0, nil, fmt.Errorf("experiments: need at least %d queries for the batch ablation", batch)
			}
			ts := c.treeScheduler(c.Sites[xi], eps, f)
			return len(trees) / batch, func(g int, out []float64) error {
				group := trees[g*batch : (g+1)*batch]
				for _, tt := range group {
					y, err := treeResponse(ts, tt)
					if err != nil {
						return err
					}
					out[0] += y
				}
				b, err := ts.ScheduleBatch(group)
				if err != nil {
					return err
				}
				out[1] = b.Response
				return nil
			}, nil
		},
	})
}

// DeclusterAblation regenerates ablation A14: the cost of data
// placement constraints — base relations pre-declustered at random
// homes (rooted scans) against scheduler-chosen scan placement.
func DeclusterAblation(c Config) (*Figure, error) {
	const joins, eps, f = 20, 0.5, 0.7
	return c.sweep(recipe{
		id:     "decluster",
		title:  fmt.Sprintf("Rooted (pre-declustered) vs floating scans (%d joins, ε = %.1f, f = %.1f)", joins, eps, f),
		xlabel: "sites", ylabel: "avg response time (s)",
		series: []string{"floating scans", "declustered scans"},
		joins:  []int{joins},
		point: func(xi int, w [][]*plan.TaskTree) (int, trialFunc, error) {
			p, trees := c.Sites[xi], w[0]
			ts := c.treeScheduler(p, eps, f)
			return len(trees), func(i int, out []float64) (err error) {
				if out[0], err = treeResponse(ts, trees[i]); err != nil {
					return err
				}
				// Each tree draws its random declustering from a private
				// derived generator so trials stay order-independent.
				r := rand.New(rand.NewSource(c.trialSeed(int64(p), int64(i))))
				rooted := ts
				if rooted.Homes, err = ts.RandomDeclustering(r, trees[i]); err != nil {
					return err
				}
				out[1], err = treeResponse(rooted, trees[i])
				return err
			}, nil
		},
	})
}

// Table2 renders the experiment parameter settings, mirroring the
// paper's Table 2 from the live defaults.
func Table2(c Config) string {
	p := c.Model.Params
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Experiment Parameter Settings\n")
	fmt.Fprintf(&b, "  %-40s %v\n", "Number of Sites", c.Sites)
	fmt.Fprintf(&b, "  %-40s %g MIPS\n", "CPU Speed", p.MIPS)
	fmt.Fprintf(&b, "  %-40s %g msec\n", "Effective Disk Service Time per page", p.DiskPageTime*1e3)
	fmt.Fprintf(&b, "  %-40s %g msec\n", "Startup Cost per site (alpha)", p.Alpha*1e3)
	fmt.Fprintf(&b, "  %-40s %g usec\n", "Network Transfer Cost per byte (beta)", p.Beta*1e6)
	fmt.Fprintf(&b, "  %-40s %d bytes\n", "Tuple Size", p.TupleBytes)
	fmt.Fprintf(&b, "  %-40s %d tuples\n", "Page Size", p.PageTuples)
	fmt.Fprintf(&b, "  %-40s 10^3 - 10^5 tuples\n", "Relation Size")
	fmt.Fprintf(&b, "  %-40s %g\n", "Read Page from Disk (instr)", p.ReadPageInstr)
	fmt.Fprintf(&b, "  %-40s %g\n", "Write Page to Disk (instr)", p.WritePageInstr)
	fmt.Fprintf(&b, "  %-40s %g\n", "Extract Tuple (instr)", p.ExtractInstr)
	fmt.Fprintf(&b, "  %-40s %g\n", "Hash Tuple (instr)", p.HashInstr)
	fmt.Fprintf(&b, "  %-40s %g\n", "Probe Hash Table (instr)", p.ProbeInstr)
	return b.String()
}

// WriteCSV renders a figure as RFC-4180 CSV — one row per x-value, one
// column per series — for plotting tools.
func WriteCSV(w io.Writer, fig *Figure) error {
	cw := csv.NewWriter(w)
	header := []string{fig.XLabel}
	for _, s := range fig.Series {
		header = append(header, s.Name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	if len(fig.Series) > 0 {
		for i := range fig.Series[0].X {
			row := []string{strconv.FormatFloat(fig.Series[0].X[i], 'g', -1, 64)}
			for _, s := range fig.Series {
				if i < len(s.Y) {
					row = append(row, strconv.FormatFloat(s.Y[i], 'g', -1, 64))
				} else {
					row = append(row, "")
				}
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteText renders a figure as an aligned text table: one row per
// x-value, one column per series.
func WriteText(w io.Writer, fig *Figure) error {
	if _, err := fmt.Fprintf(w, "Figure %s: %s\n", fig.ID, fig.Title); err != nil {
		return err
	}
	if len(fig.Series) == 0 {
		_, err := fmt.Fprintln(w, "  (no series)")
		return err
	}
	fmt.Fprintf(w, "%12s", fig.XLabel)
	for _, s := range fig.Series {
		fmt.Fprintf(w, "  %22s", s.Name)
	}
	fmt.Fprintln(w)
	for i := range fig.Series[0].X {
		fmt.Fprintf(w, "%12g", fig.Series[0].X[i])
		for _, s := range fig.Series {
			if i < len(s.Y) {
				fmt.Fprintf(w, "  %22.3f", s.Y[i])
			} else {
				fmt.Fprintf(w, "  %22s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	_, err := fmt.Fprintln(w)
	return err
}
