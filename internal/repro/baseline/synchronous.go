// Package baseline implements SYNCHRONOUS, the one-dimensional adversary
// of the paper's experiments (Section 6.1): the synchronous-execution-
// time processor allocation of Hsiao et al. [HCY94] combined with the
// two-phase minimax processor distribution of Lo et al. [LCRY93],
// extended with shared-nothing data-redistribution costs.
//
// SYNCHRONOUS sees only a scalar "work" metric (the processing area
// W_p(op)) and never deliberately shares a site between concurrent
// operators:
//
//   - the sites allotted to a parent task (join pipeline) are
//     recursively partitioned among its child subtrees proportionally to
//     their total scalar work, so the subtrees complete at approximately
//     the same time — the synchronous execution time principle. The
//     parent task itself reuses its full allocation once every child has
//     completed;
//   - when a task has more child subtrees than allotted sites, further
//     partitioning is impossible and the children are serialized: each
//     runs on the parent's full allocation, one after another (the
//     fallback Hsiao et al. prescribe for deep plans);
//   - within a task, the allotted sites are distributed across the
//     pipeline's stages by an integer minimax rule — repeatedly granting
//     the next site to the stage with the largest per-site work — which
//     is the optimal processor distribution of Lo et al. (their "two
//     phases", the build phase and the probe phase of a hash-join
//     pipeline, map to the producing and consuming tasks here);
//   - a probe executes at the home of its build (the hash table sites,
//     inside the completed child's allocation), and the redistribution
//     of its inputs is charged through the same α/β communication model
//     as for TreeSchedule.
//
// The produced placement is evaluated under the true multi-dimensional
// model of Equation 2/3 — the comparison in the paper measures exactly
// the response-time cost of ignoring resource sharing and
// multi-dimensionality, not a change of cost model.
package baseline

import (
	"fmt"
	"sort"

	"mdrs/internal/costmodel"
	"mdrs/internal/plan"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
)

// Synchronous configures the baseline scheduler.
type Synchronous struct {
	Model   costmodel.Model
	Overlap resource.Overlap
	// P is the number of system sites.
	P int
}

// Validate reports the first nonsensical configuration field.
func (b Synchronous) Validate() error {
	if err := b.Model.Params.Validate(); err != nil {
		return err
	}
	if b.P <= 0 {
		return fmt.Errorf("baseline: non-positive site count %d", b.P)
	}
	return nil
}

// Result is the outcome of a SYNCHRONOUS run: the end-to-end response
// time and the flat list of operator placements (one per plan operator).
type Result struct {
	// Response is the completion time of the root task.
	Response float64
	// Placements lists every operator's allocation.
	Placements []*sched.OpPlacement
}

// Placement returns the placement of the given operator, or nil.
func (r *Result) Placement(op *plan.Operator) *sched.OpPlacement {
	for _, pl := range r.Placements {
		if pl.Op == op {
			return pl
		}
	}
	return nil
}

// scheduler carries the mutable state of one run.
type scheduler struct {
	b     Synchronous
	homes map[*plan.Operator][]int
	out   *Result
}

// Schedule runs the baseline over a task tree and returns the placement
// and its multi-dimensionally evaluated response time.
func (b Synchronous) Schedule(tt *plan.TaskTree) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if err := tt.Validate(); err != nil {
		return nil, err
	}
	pool := make([]int, b.P)
	for i := range pool {
		pool[i] = i
	}
	s := &scheduler{b: b, homes: make(map[*plan.Operator][]int), out: &Result{}}
	resp, err := s.completion(tt.Root, pool)
	if err != nil {
		return nil, err
	}
	s.out.Response = resp
	return s.out, nil
}

// subtreeWork returns the total scalar work (processing area) of all
// operators in the task subtree — the 1-D metric the baseline optimizes.
func (s *scheduler) subtreeWork(tk *plan.Task) float64 {
	w := 0.0
	for _, op := range tk.Ops {
		w += s.b.Model.Cost(op.Spec).ProcessingArea()
	}
	for _, c := range tk.Children {
		w += s.subtreeWork(c)
	}
	return w
}

// completion schedules the task subtree onto the pool and returns its
// completion time: children first (in parallel on proportional disjoint
// sub-pools, or serialized when the pool is too narrow), then the task's
// own pipeline on the full pool.
func (s *scheduler) completion(tk *plan.Task, pool []int) (float64, error) {
	childDone := 0.0
	switch {
	case len(tk.Children) == 0:
		// Leaf task: no dependencies.
	case len(tk.Children) <= len(pool):
		// Synchronous execution time: split the pool proportionally to
		// subtree work so children finish at about the same time.
		weights := make([]float64, len(tk.Children))
		for i, c := range tk.Children {
			weights[i] = s.subtreeWork(c)
		}
		pools := allocateProportional(len(pool), weights)
		for i, c := range tk.Children {
			sub := make([]int, 0, len(pools[i]))
			for _, idx := range pools[i] {
				sub = append(sub, pool[idx])
			}
			t, err := s.completion(c, sub)
			if err != nil {
				return 0, err
			}
			if t > childDone {
				childDone = t
			}
		}
	default:
		// Deep/wide plans on a narrow pool: serialize the children on
		// the full allocation.
		for _, c := range tk.Children {
			t, err := s.completion(c, pool)
			if err != nil {
				return 0, err
			}
			childDone += t
		}
	}

	t, err := s.taskTime(tk, pool)
	if err != nil {
		return 0, err
	}
	return childDone + t, nil
}

// stage is one operator of a task with its scheduling state.
type stage struct {
	op    *plan.Operator
	cost  costmodel.OpCost
	work  float64
	home  []int // fixed sites (rooted probes), nil when floating
	sites []int
}

// taskTime schedules the task's pipeline stages (rooted probes at their
// build homes, floating stages minimax over the pool) and evaluates the
// pipeline's response under Equation 3.
func (s *scheduler) taskTime(tk *plan.Task, pool []int) (float64, error) {
	var stages []*stage
	var floating []*stage
	rooted := map[int]bool{}
	for _, op := range tk.Ops {
		st := &stage{op: op, cost: s.b.Model.Cost(op.Spec)}
		st.work = st.cost.ProcessingArea()
		if op.BuildOp != nil {
			h, ok := s.homes[op.BuildOp]
			if !ok {
				return 0, fmt.Errorf("baseline: probe %q scheduled before its build", op.Name)
			}
			st.home = h
			st.sites = h
			for _, site := range h {
				rooted[site] = true
			}
		} else {
			floating = append(floating, st)
		}
		stages = append(stages, st)
	}
	// Floating stages avoid the rooted probes' sites — the baseline
	// never deliberately shares a site between concurrent stages. If the
	// probes own the whole pool, sharing is forced.
	free := pool[:0:0]
	for _, site := range pool {
		if !rooted[site] {
			free = append(free, site)
		}
	}
	if len(free) == 0 {
		free = pool
	}
	s.distributeWithinTask(floating, free)

	sys := resource.NewSystem(s.b.P, resource.Dims, s.b.Overlap)
	for _, st := range stages {
		if len(st.sites) == 0 {
			return 0, fmt.Errorf("baseline: stage %q received no sites", st.op.Name)
		}
		n := len(st.sites)
		work := sched.SplitWork(s.b.Model.Split(st.cost, n))
		k := 0
		for _, r := range work {
			sys.AssignRun(st.sites[k:k+r.N], r.W)
			k += r.N
		}
		s.homes[st.op] = st.sites
		s.out.Placements = append(s.out.Placements, &sched.OpPlacement{
			Op:     st.op,
			Degree: n,
			Sites:  st.sites,
			Work:   work,
			Rooted: st.home != nil,
			TPar:   s.b.Model.TPar(st.cost, n, s.b.Overlap),
		})
	}
	return sys.MaxTSite(), nil
}

// distributeWithinTask assigns the pool to the floating stages via the
// integer minimax rule of Lo et al.: every stage first receives one site
// (stages are stacked LPT-style when they outnumber the pool), then each
// remaining site goes to the stage with the maximum current per-site
// work, capped at the stage's N_opt so assumption A4 holds for the
// baseline too.
func (s *scheduler) distributeWithinTask(stages []*stage, pool []int) {
	if len(stages) == 0 || len(pool) == 0 {
		return
	}
	ord := make([]*stage, len(stages))
	copy(ord, stages)
	sort.SliceStable(ord, func(i, j int) bool { return ord[i].work > ord[j].work })

	if len(pool) < len(ord) {
		// Serialization: stack stages onto sites by LPT; each runs with
		// degree 1.
		load := make([]float64, len(pool))
		for _, st := range ord {
			best := 0
			for j := 1; j < len(pool); j++ {
				if load[j] < load[best] {
					best = j
				}
			}
			st.sites = []int{pool[best]}
			load[best] += st.work
		}
		return
	}

	counts := make([]int, len(ord))
	caps := make([]int, len(ord))
	for i, st := range ord {
		counts[i] = 1
		caps[i] = s.b.Model.NOpt(st.cost, len(pool), s.b.Overlap)
		if caps[i] < 1 {
			caps[i] = 1
		}
	}
	remaining := len(pool) - len(ord)
	for remaining > 0 {
		best, bestKey := -1, 0.0
		for i, st := range ord {
			if counts[i] >= caps[i] {
				continue
			}
			key := st.work / float64(counts[i])
			if best < 0 || key > bestKey {
				best, bestKey = i, key
			}
		}
		if best < 0 {
			break // every stage at its cap; leave the rest idle
		}
		counts[best]++
		remaining--
	}
	next := 0
	for i, st := range ord {
		st.sites = pool[next : next+counts[i]]
		next += counts[i]
	}
}

// allocateProportional divides the site indices [0, count) among tasks
// with the given scalar weights so the shares are proportional to the
// weights (largest-remainder rounding) and every task gets at least one
// index while indices last. When tasks outnumber indices, the leftover
// tasks — processed in decreasing weight order — round-robin over the
// indices, sharing pools with earlier tasks.
func allocateProportional(count int, weights []float64) [][]int {
	pools := make([][]int, len(weights))
	if len(weights) == 0 || count == 0 {
		return pools
	}
	totalW := 0.0
	for _, w := range weights {
		totalW += w
	}

	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return weights[order[a]] > weights[order[b]]
	})

	if len(weights) >= count {
		for rank, i := range order {
			pools[i] = []int{rank % count}
		}
		return pools
	}

	shares := make([]int, len(weights))
	remainders := make([]float64, len(weights))
	assigned := 0
	for i, w := range weights {
		var ideal float64
		if totalW > 0 {
			ideal = float64(count) * w / totalW
		} else {
			ideal = float64(count) / float64(len(weights))
		}
		shares[i] = int(ideal)
		if shares[i] < 1 {
			shares[i] = 1
		}
		remainders[i] = ideal - float64(shares[i])
		assigned += shares[i]
	}
	for assigned < count {
		best := -1
		for _, i := range order {
			if best < 0 || remainders[i] > remainders[best] {
				best = i
			}
		}
		shares[best]++
		remainders[best]--
		assigned++
	}
	for assigned > count {
		worst := -1
		for _, i := range order {
			if shares[i] <= 1 {
				continue
			}
			if worst < 0 || remainders[i] < remainders[worst] {
				worst = i
			}
		}
		if worst < 0 {
			break
		}
		shares[worst]--
		remainders[worst]++
		assigned--
	}

	next := 0
	for _, i := range order {
		n := shares[i]
		if next+n > count {
			n = count - next
		}
		for k := 0; k < n; k++ {
			pools[i] = append(pools[i], next+k)
		}
		next += n
	}
	return pools
}
