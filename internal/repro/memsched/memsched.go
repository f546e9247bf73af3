// Package memsched extends the paper's framework with the first open
// problem its conclusions pose: scheduling under a NON-preemptable
// resource — memory. The base model (assumption A1) grants every build
// unlimited memory for its hash table; here each site has a fixed
// memory capacity, hash tables occupy real space for their whole
// lifetime (from the build's phase through the probe's phase, under the
// MinShelf split exactly two phases), and placements that do not fit
// pay a hybrid-hash-style spill penalty instead of silently violating
// the capacity:
//
//   - a build clone whose table share does not fit at its site spills a
//     fraction σ of its input to disk and re-reads it, adding
//     σ·(write + read) page I/O and the corresponding CPU work to both
//     the build's and the matching probe's clone vectors;
//   - placement prefers memory-feasible sites: the list-scheduling rule
//     is unchanged except that sites lacking free memory for the clone
//     are considered only when no feasible site exists, and then the
//     site with the largest free memory (smallest spill) among the
//     least-loaded is used.
//
// With capacity = +Inf the scheduler reproduces TreeSchedule exactly, a
// property the tests pin down; as capacity shrinks the response time
// degrades smoothly through spill I/O rather than failing.
package memsched

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"mdrs/internal/costmodel"
	"mdrs/internal/obs"
	"mdrs/internal/plan"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
	"mdrs/internal/vector"
)

// Scheduler is a memory-aware TreeSchedule.
type Scheduler struct {
	Model   costmodel.Model
	Overlap resource.Overlap
	// P is the number of system sites.
	P int
	// F is the coarse-granularity parameter.
	F float64
	// MemoryBytes is the per-site memory capacity available for hash
	// tables. Use math.Inf(1) (or 0, treated as infinite) to recover the
	// paper's assumption A1.
	MemoryBytes float64
	// TableOverhead scales a hash table's footprint relative to its raw
	// input bytes (buckets, pointers). Defaults to 1.2 when zero.
	TableOverhead float64
	// Rec, when non-nil, receives the decision trace — placements plus
	// the memory splits (spill decisions) unique to this scheduler —
	// and aggregate counters. Nil disables recording.
	Rec obs.Recorder
}

// Validate reports the first nonsensical configuration field.
func (s Scheduler) Validate() error {
	if err := s.Model.Params.Validate(); err != nil {
		return err
	}
	if s.P <= 0 {
		return fmt.Errorf("memsched: non-positive site count %d", s.P)
	}
	if !(s.F >= 0) || math.IsInf(s.F, 1) {
		return fmt.Errorf("memsched: granularity parameter f = %g, want finite and non-negative", s.F)
	}
	if !(s.MemoryBytes >= 0) {
		return fmt.Errorf("memsched: memory capacity %g, want non-negative or +Inf", s.MemoryBytes)
	}
	if !(s.TableOverhead >= 0) || math.IsInf(s.TableOverhead, 1) {
		return fmt.Errorf("memsched: table overhead %g, want finite and non-negative", s.TableOverhead)
	}
	return nil
}

func (s Scheduler) capacity() float64 {
	if s.MemoryBytes == 0 {
		return math.Inf(1)
	}
	return s.MemoryBytes
}

func (s Scheduler) overhead() float64 {
	if s.TableOverhead == 0 {
		return 1.2
	}
	return s.TableOverhead
}

// Placement extends the base OpPlacement with memory accounting.
type Placement struct {
	sched.OpPlacement
	// TableBytes is the per-clone hash-table footprint (builds only).
	TableBytes float64
	// SpilledBytes is the total bytes spilled across clones (builds
	// only; zero when everything fit).
	SpilledBytes float64
}

// PhaseResult is one phase of the memory-aware schedule.
type PhaseResult struct {
	Index      int
	Placements []*Placement
	Response   float64
	// PeakMemory is the largest per-site memory residency observed
	// during the phase (bytes).
	PeakMemory float64
}

// Result is the complete memory-aware schedule.
type Result struct {
	Phases   []*PhaseResult
	Response float64
	// TotalSpilledBytes sums spills over all builds.
	TotalSpilledBytes float64
	P                 int
}

// reservation tracks one live hash table's footprint at a site.
type reservation struct {
	site  int
	bytes float64
	// until is the phase index after which the reservation is released
	// (the probe's phase).
	until int
}

// Schedule runs the memory-aware TreeSchedule over a task tree.
func (s Scheduler) Schedule(tt *plan.TaskTree) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := tt.Validate(); err != nil {
		return nil, err
	}

	cap := s.capacity()
	out := &Result{P: s.P}
	homes := make(map[*plan.Operator][]int)
	// spillWork[probe] accumulates extra per-clone disk/CPU work the
	// probe inherits from its build's spill, keyed by clone index.
	spillWork := make(map[*plan.Operator][]vector.Vector)
	var live []reservation

	phases := tt.Phases()
	for phaseIdx, tasks := range phases {
		// Free reservations whose lifetime ended before this phase.
		kept := live[:0]
		for _, r := range live {
			if r.until >= phaseIdx {
				kept = append(kept, r)
			}
		}
		live = kept

		// Free memory per site at phase start.
		freeMem := make([]float64, s.P)
		for j := range freeMem {
			freeMem[j] = cap
		}
		for _, r := range live {
			freeMem[r.site] -= r.bytes
		}

		ph, newLive, err := s.schedulePhase(phaseIdx, tasks, homes, freeMem, spillWork)
		if err != nil {
			return nil, err
		}
		live = append(live, newLive...)
		out.Phases = append(out.Phases, ph)
		out.Response += ph.Response
		for _, pl := range ph.Placements {
			out.TotalSpilledBytes += pl.SpilledBytes
		}
	}
	return out, nil
}

// schedulePhase places one phase's operators with memory-aware list
// scheduling and returns the phase result plus the new reservations.
func (s Scheduler) schedulePhase(phaseIdx int, tasks []*plan.Task,
	homes map[*plan.Operator][]int, freeMem []float64,
	spillWork map[*plan.Operator][]vector.Vector) (*PhaseResult, []reservation, error) {

	type item struct {
		op       *plan.Operator
		clone    int
		w        vector.Vector
		rootedAt int // -1 when floating
		table    float64
	}

	// Prepare all clones of the phase. clonesOf holds each operator's
	// clone vectors until placement has added its spills; they become
	// the placement's Work at the end, adjacent equal vectors as one run,
	// so a spilled clone is a run of one with its own vector.
	var items []item
	placements := make(map[*plan.Operator]*Placement)
	clonesOf := make(map[*plan.Operator][]vector.Vector)
	var order []*plan.Operator
	for _, tk := range tasks {
		for _, op := range tk.Ops {
			cost := s.Model.Cost(op.Spec)
			var home []int
			if op.BuildOp != nil {
				h, ok := homes[op.BuildOp]
				if !ok {
					return nil, nil, fmt.Errorf("memsched: phase %d: probe %q before its build",
						phaseIdx, op.Name)
				}
				home = h
			}
			var n int
			if home != nil {
				n = len(home)
			} else {
				n = s.Model.Degree(cost, s.F, s.P, s.Overlap)
				if op.Kind == costmodel.Build && op.Consumer != nil {
					probeCost := s.Model.Cost(op.Consumer.Spec)
					if pn := s.Model.Degree(probeCost, s.F, s.P, s.Overlap); pn < n {
						n = pn
					}
				}
			}
			// Each clone has its own vector, which its spills grow.
			split := s.Model.Split(cost, n)
			clones := make([]vector.Vector, n)
			for k := range clones {
				clones[k] = vector.Vector(split.Worker[:]).Clone()
			}
			copy(clones[0], split.Coord[:])
			clonesOf[op] = clones
			// Fold in spill work inherited from this probe's build.
			if extra := spillWork[op]; extra != nil {
				for k := range clones {
					if k < len(extra) {
						clones[k].AddInPlace(extra[k])
					}
				}
			}
			var table float64
			if op.Kind == costmodel.Build {
				table = s.Model.Params.Bytes(op.Spec.InTuples) * s.overhead() / float64(n)
			}
			pl := &Placement{
				OpPlacement: sched.OpPlacement{
					Op: op, Degree: n,
					Rooted: home != nil,
					Sites:  make([]int, n),
				},
				TableBytes: table,
			}
			placements[op] = pl
			order = append(order, op)
			for k, w := range clones {
				it := item{op: op, clone: k, w: w, rootedAt: -1, table: table}
				if home != nil {
					it.rootedAt = home[k]
				}
				items = append(items, it)
			}
		}
	}

	if s.Rec != nil {
		s.Rec.Event(obs.Event{
			Type: obs.EvPhaseOpen, Phase: phaseIdx,
			Ops: len(order), Clones: len(items),
		})
	}

	sys := resource.NewSystem(s.P, resource.Dims, s.Overlap)
	used := make(map[*plan.Operator]map[int]bool)
	for op := range placements {
		used[op] = map[int]bool{}
	}
	var newLive []reservation

	place := func(it item, site int) {
		pl := placements[it.op]
		if s.Rec != nil {
			s.Rec.Event(obs.Event{
				Type: obs.EvPlace, Phase: phaseIdx, Op: it.op.ID,
				Name: it.op.Name, Clone: it.clone, Site: site,
				Rooted: it.rootedAt >= 0,
				L:      sys.LoadLength(site), Sum: sys.LoadSum(site),
			})
		}
		// A build clone that does not fit spills the surplus fraction of
		// its input: charge write+read of the spilled pages (disk) and
		// the page I/O CPU to this clone, and the re-read to the probe's
		// matching clone.
		w := it.w
		if it.op.Kind == costmodel.Build && it.table > 0 {
			free := freeMem[site]
			if free < it.table {
				deficit := it.table - math.Max(free, 0)
				sigma := deficit / it.table
				spilledBytes := sigma * s.Model.Params.Bytes(it.op.Spec.InTuples) / float64(pl.Degree)
				pl.SpilledBytes += spilledBytes
				if s.Rec != nil {
					s.Rec.Count("memsched.spills", 1)
					s.Rec.Observe("memsched.spilled_bytes", spilledBytes)
					s.Rec.Event(obs.Event{
						Type: obs.EvMemSplit, Phase: phaseIdx, Op: it.op.ID,
						Name: it.op.Name, Clone: it.clone, Site: site,
						Bytes: it.table, Free: math.Max(free, 0),
						Spilled: spilledBytes, Sigma: sigma,
					})
				}
				spillVec := s.spillVector(spilledBytes)
				w = w.Add(spillVec)
				clonesOf[it.op][it.clone] = w
				if probe := it.op.Consumer; probe != nil {
					extra := spillWork[probe]
					if extra == nil {
						extra = make([]vector.Vector, pl.Degree)
						for i := range extra {
							extra[i] = vector.New(resource.Dims)
						}
						spillWork[probe] = extra
					}
					extra[it.clone].AddInPlace(spillVec)
				}
				freeMem[site] = 0
				newLive = append(newLive, reservation{site: site, bytes: math.Max(free, 0), until: phaseIdx + 1})
			} else {
				freeMem[site] -= it.table
				newLive = append(newLive, reservation{site: site, bytes: it.table, until: phaseIdx + 1})
			}
		}
		sys.Assign(site, w)
		used[it.op][site] = true
		pl.Sites[it.clone] = site
	}

	// Rooted clones first (Figure 3 step 1).
	var floating []item
	for _, it := range items {
		if it.rootedAt >= 0 {
			place(it, it.rootedAt)
		} else {
			floating = append(floating, it)
		}
	}

	// Floating clones in non-increasing l(w̄); the memory-aware twist:
	// among allowable sites prefer memory-feasible ones, then least
	// loaded, then more free memory.
	sort.SliceStable(floating, func(i, j int) bool {
		a, b := floating[i], floating[j]
		la, lb := a.w.Length(), b.w.Length()
		if la != lb {
			return la > lb
		}
		if a.op.ID != b.op.ID {
			return a.op.ID < b.op.ID
		}
		return a.clone < b.clone
	})
	for _, it := range floating {
		bans := used[it.op]
		best := -1
		bestFeasible := false
		bestLoad, bestSum, bestFree := 0.0, 0.0, 0.0
		for j := 0; j < s.P; j++ {
			if bans[j] {
				continue
			}
			feasible := it.table == 0 || freeMem[j] >= it.table
			load := sys.LoadLength(j)
			sum := sys.LoadSum(j)
			free := freeMem[j]
			// Exact lexicographic (feasible, l, sum, free desc, site)
			// comparison, mirroring internal/sched's placement key: no
			// epsilon window, so near-ties cannot chain and equal keys
			// break on the smaller site index (the ascending scan keeps
			// the earlier site).
			better := false
			switch {
			case best < 0:
				better = true
			case feasible != bestFeasible:
				better = feasible
			case load != bestLoad:
				better = load < bestLoad
			case sum != bestSum:
				better = sum < bestSum
			case free != bestFree:
				better = free > bestFree
			}
			if better {
				best, bestFeasible, bestLoad, bestSum, bestFree = j, feasible, load, sum, free
			}
		}
		if best < 0 {
			return nil, nil, fmt.Errorf("memsched: no allowable site for %q clone %d",
				it.op.Name, it.clone)
		}
		place(it, best)
	}

	ph := &PhaseResult{Index: phaseIdx, Response: sys.MaxTSite()}
	for _, op := range order {
		pl := placements[op]
		for _, w := range clonesOf[op] {
			if last := len(pl.Work) - 1; last >= 0 && slices.Equal(pl.Work[last].W, w) {
				pl.Work[last].N++
			} else {
				pl.Work = append(pl.Work, sched.WorkRun{N: 1, W: w})
			}
		}
		homes[op] = pl.Sites
		ph.Placements = append(ph.Placements, pl)
	}
	// Peak residency: capacity minus the minimum free memory.
	cap := s.capacity()
	if !math.IsInf(cap, 1) {
		for j := 0; j < s.P; j++ {
			if used := cap - freeMem[j]; used > ph.PeakMemory {
				ph.PeakMemory = used
			}
		}
	}
	if s.Rec != nil {
		s.Rec.Observe("memsched.peak_bytes", ph.PeakMemory)
		s.Rec.Event(obs.Event{
			Type: obs.EvPhaseClose, Phase: phaseIdx, Response: ph.Response,
		})
	}
	return ph, newLive, nil
}

// spillVector returns the extra work of spilling and re-reading the
// given bytes: a page write plus a page read on disk and their CPU cost.
func (s Scheduler) spillVector(bytes float64) vector.Vector {
	p := s.Model.Params
	pages := bytes / float64(p.PageTuples*p.TupleBytes)
	w := vector.New(resource.Dims)
	w[resource.Disk] = 2 * pages * p.DiskPageTime
	w[resource.CPU] = pages * (p.WritePageInstr + p.ReadPageInstr) / (p.MIPS * 1e6)
	return w
}
