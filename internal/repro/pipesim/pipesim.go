// Package pipesim is a discrete-time simulator of pipelined parallel
// execution. Where internal/repro/sim validates Equation 2 for one site's
// concurrent clones, pipesim validates the paper's *pipeline*
// abstraction itself: Section 5.2 models the operators of a task
// (producer → consumer chains connected by repartitioning exchanges) as
// if they simply ran concurrently, with uniform resource usage over
// each operator's lifetime (assumption A3). This simulator executes the
// dataflow explicitly —
//
//   - every operator clone advances through its input at a rate limited
//     by its site's preemptable resources (equal-stretch processor
//     sharing, as in internal/repro/sim), and
//   - a consumer's progress can never exceed its pipeline producer's
//     progress (tuples must be produced before they are consumed),
//
// — and reports the resulting makespan per phase. Comparing it against
// the analytic Equation 3 response quantifies the model error of
// treating pipelines as unconstrained concurrency: zero when every
// producer keeps ahead of its consumers, small otherwise.
package pipesim

import (
	"fmt"
	"math"

	"mdrs/internal/plan"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
	"mdrs/internal/vector"
)

// Config tunes the simulation granularity.
type Config struct {
	// Steps is the number of time steps used to resolve each phase
	// (higher = more accurate). Defaults to 2000 when zero.
	Steps int
}

func (c Config) steps() int {
	if c.Steps <= 0 {
		return 2000
	}
	return c.Steps
}

// Result compares the analytic phased response with the simulated one.
type Result struct {
	// PhaseAnalytic and PhaseSimulated hold per-phase response times.
	PhaseAnalytic  []float64
	PhaseSimulated []float64
	// Analytic and Simulated are the end-to-end sums.
	Analytic  float64
	Simulated float64
}

// Ratio returns Simulated/Analytic (1 when both are zero).
func (r *Result) Ratio() float64 {
	if r.Analytic == 0 {
		if r.Simulated == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return r.Simulated / r.Analytic
}

// cloneState is one operator clone in the current phase.
type cloneState struct {
	opIdx    int
	site     int
	rate     vector.Vector // resource consumption rates when unslowed
	tseq     float64       // standalone duration
	progress float64       // in [0, 1]
}

// opState is one operator in the current phase.
type opState struct {
	op       *plan.Operator
	producer int // index into the phase's op list; -1 for none
	clones   []*cloneState
}

// Simulate replays a schedule under explicit pipeline dataflow.
func Simulate(ov resource.Overlap, s *sched.Schedule, cfg Config) (*Result, error) {
	res := &Result{}
	for _, ph := range s.Phases {
		analytic := ph.Response
		simulated, err := simulatePhase(ov, s.P, ph, cfg.steps())
		if err != nil {
			return nil, fmt.Errorf("pipesim: phase %d: %w", ph.Index, err)
		}
		res.PhaseAnalytic = append(res.PhaseAnalytic, analytic)
		res.PhaseSimulated = append(res.PhaseSimulated, simulated)
		res.Analytic += analytic
		res.Simulated += simulated
	}
	return res, nil
}

func simulatePhase(ov resource.Overlap, p int, ph *sched.PhaseSchedule, steps int) (float64, error) {
	// Build op and clone states; wire pipeline producers.
	opIndex := make(map[*plan.Operator]int, len(ph.Placements))
	ops := make([]*opState, 0, len(ph.Placements))
	for _, pl := range ph.Placements {
		opIndex[pl.Op] = len(ops)
		ops = append(ops, &opState{op: pl.Op, producer: -1})
	}
	longest := 0.0
	for i, pl := range ph.Placements {
		st := ops[i]
		k := 0
		for _, r := range pl.Work {
			w := r.W
			t := ov.TSeq(w)
			var rate vector.Vector
			if t > 0 {
				rate = w.Scale(1 / t)
			} else {
				rate = vector.New(w.Dim())
			}
			if t > longest {
				longest = t
			}
			for range r.N {
				c := &cloneState{opIdx: i, site: pl.Sites[k], tseq: t, rate: rate}
				if t <= 0 {
					c.progress = 1
				}
				st.clones = append(st.clones, c)
				k++
			}
		}
	}
	for i, pl := range ph.Placements {
		// The pipeline producer of this op, if it is scheduled in the
		// same phase (it always is: tasks are wholly within one phase).
		for _, cand := range pl.Op.Task.Ops {
			if cand.Consumer == pl.Op && cand.ConsumerEdge == plan.Pipeline {
				j, ok := opIndex[cand]
				if !ok {
					return 0, fmt.Errorf("producer %q of %q missing from phase",
						cand.Name, pl.Op.Name)
				}
				ops[i].producer = j
			}
		}
	}
	if longest == 0 {
		return 0, nil
	}

	// Time step: resolve the phase at `steps` slices of the analytic
	// response (a safe upper-bound scale for the step size; simulation
	// continues past it if pipelining stretches the phase).
	dt := ph.Response / float64(steps)
	if dt <= 0 {
		dt = longest / float64(steps)
	}

	opProgress := func(i int) float64 {
		st := ops[i]
		min := 1.0
		for _, c := range st.clones {
			if c.progress < min {
				min = c.progress
			}
		}
		return min
	}

	now := 0.0
	maxTime := ph.Response * 100 // divergence guard
	for {
		done := true
		for i := range ops {
			if opProgress(i) < 1-1e-9 {
				done = false
				break
			}
		}
		if done {
			return now, nil
		}
		if now > maxTime {
			return 0, fmt.Errorf("simulation diverged beyond 100x the analytic response")
		}

		// Active clones: unfinished and not starved by their producer.
		demand := make([]vector.Vector, p)
		var active []*cloneState
		for i, st := range ops {
			limit := 1.0
			if st.producer >= 0 {
				limit = opProgress(st.producer)
			}
			for _, c := range st.clones {
				if c.progress >= 1-1e-12 || c.progress >= limit-1e-12 && limit < 1-1e-12 {
					continue
				}
				if c.progress >= 1 {
					continue
				}
				active = append(active, c)
				if demand[c.site] == nil {
					demand[c.site] = vector.New(c.rate.Dim())
				}
				demand[c.site].AddInPlace(c.rate)
			}
			_ = i
		}
		if len(active) == 0 {
			// Everyone is starved: producers finished exactly at their
			// consumers' clamp... advance time minimally to re-evaluate.
			now += dt
			continue
		}

		// Per-site equal-stretch slowdown.
		lambda := make([]float64, p)
		for j := range lambda {
			lambda[j] = 1
			if demand[j] != nil {
				if m := demand[j].Length(); m > 1 {
					lambda[j] = 1 / m
				}
			}
		}
		for _, c := range active {
			dp := lambda[c.site] * dt / c.tseq
			limit := 1.0
			if prod := ops[c.opIdx].producer; prod >= 0 {
				limit = opProgress(prod)
			}
			c.progress += dp
			if c.progress > limit {
				c.progress = limit
			}
			if c.progress > 1 {
				c.progress = 1
			}
		}
		now += dt
	}
}
