// Package plan performs the structural transformations of Section 3.1:
// it macro-expands a bushy hash-join execution plan into an operator
// tree of scan/build/probe nodes with pipelining and blocking edges,
// groups the operators into query tasks (maximal pipelined subgraphs),
// builds the query task tree, and splits it into the synchronized
// execution phases of Section 5.4 (the MinShelf policy of Tan & Lu:
// each task runs in the phase closest to the root that respects the
// blocking constraints, and phases execute bottom-up).
//
// For a plan with J joins the expansion yields J+1 scans, J builds and
// J probes (3J+1 operators), matching the paper's observation that the
// operator count is a small constant times the join count.
package plan

import (
	"fmt"
	"strconv"
	"strings"

	"mdrs/internal/costmodel"
	"mdrs/internal/query"
)

// EdgeKind distinguishes the two timing constraints an operator-tree
// edge can carry (Figure 1(b)).
type EdgeKind int

const (
	// Pipeline edges stream tuples; producer and consumer run
	// concurrently within one query task.
	Pipeline EdgeKind = iota
	// Blocking edges require the producer to finish before the consumer
	// starts (e.g. a hash table must be complete before probing).
	Blocking
)

// String names the edge kind.
func (k EdgeKind) String() string {
	if k == Pipeline {
		return "pipeline"
	}
	return "blocking"
}

// Operator is a node of the operator tree.
type Operator struct {
	// ID indexes the operator within its tree, dense from 0.
	ID int
	// Kind is the physical operator type.
	Kind costmodel.OpKind
	// Spec carries the cardinalities and interconnect flags used for
	// costing.
	Spec costmodel.OpSpec
	// Name is a human-readable label such as "scan(R3)" or "probe(J5)".
	Name string
	// JoinID identifies the join a build/probe belongs to; -1 for scans.
	JoinID int

	// Consumer is the operator this one's output flows to (nil for the
	// root) and ConsumerEdge the kind of that edge.
	Consumer     *Operator
	ConsumerEdge EdgeKind

	// BuildOp links a probe to the build of the same join; the probe is
	// rooted at the build's home (Section 5.5). Nil for non-probes.
	BuildOp *Operator

	// Source is the plan node the operator was expanded from: the leaf
	// for a scan, the join node for a build or probe.
	Source *query.PlanNode

	// Task is the query task containing the operator, set by NewTaskTree.
	Task *Task
}

// OperatorTree is the macro-expanded form of an execution plan.
type OperatorTree struct {
	// Ops lists all operators, indexed by ID.
	Ops []*Operator
	// Root is the operator producing the query result.
	Root *Operator
	// Joins is the number of joins in the source plan.
	Joins int

	slab     []Operator // what Ops point into, filled in ID order by expand
	nextJoin int        // next join ID to assign during expansion
}

// Expand macro-expands a validated execution plan into its operator
// tree. Every pipelined transfer is repartitioned (assumption A5), so
// scans and probes send their output over the interconnect and builds
// and probes receive their input over it; the root streams its result
// to the client over the network.
func Expand(p *query.PlanNode) (*OperatorTree, error) { return expand(p, false) }

// MustExpand is Expand that panics on an invalid plan.
func MustExpand(p *query.PlanNode) *OperatorTree {
	t, err := Expand(p)
	if err != nil {
		panic(err)
	}
	return t
}

// ExpandMaterialized is Expand with an explicit Store operator appended
// at the root: the query result is repartitioned to the store's sites
// and written to disk instead of streamed to the client. The store
// joins the root pipeline (a pipelining edge), so it schedules in the
// final phase alongside the producers feeding it.
func ExpandMaterialized(p *query.PlanNode) (*OperatorTree, error) { return expand(p, true) }

// expand builds the operator tree, with a store at the root if asked,
// in four allocations: the tree, its operators, their pointers, names.
func expand(p *query.PlanNode, store bool) (*OperatorTree, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("plan: expanding invalid plan: %w", err)
	}
	j := p.Joins()
	n := 3*j + 1
	if store {
		n++
	}
	t := &OperatorTree{Joins: j, Ops: make([]*Operator, 0, n), slab: make([]Operator, n)}
	t.Root = t.expand(p)
	if store {
		// The producer feeds the store over the interconnect (NetOut).
		producer := t.Root
		t.Root = t.newOp(costmodel.Store, -1, p, costmodel.OpSpec{
			Kind:         costmodel.Store,
			InTuples:     p.Tuples,
			ResultTuples: p.Tuples,
			NetIn:        true,
		})
		producer.Consumer, producer.ConsumerEdge = t.Root, Pipeline
	}
	t.name()
	return t, nil
}

func (t *OperatorTree) newOp(kind costmodel.OpKind, joinID int, src *query.PlanNode, spec costmodel.OpSpec) *Operator {
	id := len(t.Ops)
	op := &t.slab[id] // zeroed: set the fields one by one, not a whole struct copy
	op.ID, op.Kind, op.Spec, op.JoinID, op.Source = id, kind, spec, joinID, src
	t.Ops = append(t.Ops, op)
	return op
}

// name labels every operator kind(label): scan(R3), build(J5),
// probe(J5), store(result). The names are written into one string
// sized first, and each Name is a slice of it.
func (t *OperatorTree) name() {
	nameLen := func(op *Operator) int {
		n := len(op.Kind.String()) + len("()")
		switch op.Kind {
		case costmodel.Scan:
			return n + len(op.Source.Relation.Name)
		case costmodel.Store:
			return n + len("result")
		}
		for j := op.JoinID; j >= 10; j /= 10 {
			n++
		}
		return n + len("J0")
	}
	size := 0
	for _, op := range t.Ops {
		size += nameLen(op)
	}
	var b strings.Builder
	b.Grow(size)
	var digits [20]byte
	for _, op := range t.Ops {
		b.WriteString(op.Kind.String())
		b.WriteByte('(')
		switch op.Kind {
		case costmodel.Scan:
			b.WriteString(op.Source.Relation.Name)
		case costmodel.Store:
			b.WriteString("result")
		default:
			b.WriteByte('J')
			b.Write(strconv.AppendInt(digits[:0], int64(op.JoinID), 10))
		}
		b.WriteByte(')')
	}
	s, at := b.String(), 0
	for _, op := range t.Ops {
		n := nameLen(op)
		op.Name, at = s[at:at+n], at+n
	}
}

// ScanSpec is the costing spec of the scan operator a leaf plan node
// expands to. The spec depends only on the node itself — not on any
// enclosing plan — which is what makes per-subtree OPTBOUND terms
// (opt.SubtreeBounds) reusable across every candidate containing the
// subtree. Expand builds its operators from these same constructors, so
// the bound layer and the expansion can never disagree.
func ScanSpec(n *query.PlanNode) costmodel.OpSpec {
	return costmodel.OpSpec{
		Kind:     costmodel.Scan,
		InTuples: n.Relation.Tuples,
		NetOut:   true, // A5: pipelined output repartitioned
	}
}

// BuildSpec is the costing spec of the build operator a join plan node
// expands to. Context-independent like ScanSpec.
func BuildSpec(n *query.PlanNode) costmodel.OpSpec {
	return costmodel.OpSpec{
		Kind:     costmodel.Build,
		InTuples: n.Inner.Tuples,
		NetIn:    true,
	}
}

// ProbeSpec is the costing spec of the probe operator a join plan node
// expands to. Context-independent like ScanSpec.
func ProbeSpec(n *query.PlanNode) costmodel.OpSpec {
	return costmodel.OpSpec{
		Kind:         costmodel.Probe,
		InTuples:     n.Outer.Tuples,
		ResultTuples: n.Tuples,
		NetIn:        true,
		NetOut:       true,
	}
}

// expand returns the producer operator of the subtree's output stream.
func (t *OperatorTree) expand(n *query.PlanNode) *Operator {
	if n.IsLeaf() {
		return t.newOp(costmodel.Scan, -1, n, ScanSpec(n))
	}

	inner := t.expand(n.Inner)
	outer := t.expand(n.Outer)

	jid := t.nextJoin
	t.nextJoin++
	build := t.newOp(costmodel.Build, jid, n, BuildSpec(n))
	probe := t.newOp(costmodel.Probe, jid, n, ProbeSpec(n))
	probe.BuildOp = build

	inner.Consumer, inner.ConsumerEdge = build, Pipeline
	outer.Consumer, outer.ConsumerEdge = probe, Pipeline
	build.Consumer, build.ConsumerEdge = probe, Blocking
	return probe
}

// Validate checks the structural invariants of the expansion: operator
// counts, edge kinds, probe/build pairing, and ID density.
func (t *OperatorTree) Validate() error {
	if t.Root == nil {
		return fmt.Errorf("plan: operator tree has no root")
	}
	scans, builds, probes, stores := 0, 0, 0, 0
	for i, op := range t.Ops {
		if op.ID != i {
			return fmt.Errorf("plan: operator %q has ID %d at index %d", op.Name, op.ID, i)
		}
		if c := op.Consumer; c != nil && (uint(c.ID) >= uint(len(t.Ops)) || t.Ops[c.ID] != c) {
			return fmt.Errorf("plan: operator %q feeds %q outside the tree", op.Name, c.Name)
		}
		switch op.Kind {
		case costmodel.Store:
			stores++
			if op != t.Root {
				return fmt.Errorf("plan: store %q is not the root", op.Name)
			}
		case costmodel.Scan:
			scans++
			if op.Consumer == nil && t.Joins > 0 {
				return fmt.Errorf("plan: scan %q has no consumer", op.Name)
			}
		case costmodel.Build:
			builds++
			if op.Consumer == nil || op.Consumer.Kind != costmodel.Probe {
				return fmt.Errorf("plan: build %q does not feed a probe", op.Name)
			}
			if op.ConsumerEdge != Blocking {
				return fmt.Errorf("plan: build %q edge is %v, want blocking", op.Name, op.ConsumerEdge)
			}
		case costmodel.Probe:
			probes++
			if op.BuildOp == nil || op.BuildOp.JoinID != op.JoinID {
				return fmt.Errorf("plan: probe %q not paired with its build", op.Name)
			}
		default:
			return fmt.Errorf("plan: unexpected operator kind %v", op.Kind)
		}
	}
	if scans != t.Joins+1 && !(t.Joins == 0 && scans == 1) {
		return fmt.Errorf("plan: %d scans for %d joins", scans, t.Joins)
	}
	if builds != t.Joins || probes != t.Joins {
		return fmt.Errorf("plan: %d builds / %d probes for %d joins", builds, probes, t.Joins)
	}
	if stores > 1 {
		return fmt.Errorf("plan: %d store operators", stores)
	}
	if t.Root.Consumer != nil {
		return fmt.Errorf("plan: root %q has a consumer", t.Root.Name)
	}
	return nil
}

// Task is a query task: a maximal subgraph of the operator tree
// connected by pipelining edges, executed as one unit of concurrency.
type Task struct {
	// ID indexes the task within its tree, dense from 0.
	ID int
	// Ops are the task's operators, in operator-ID order.
	Ops []*Operator
	// Parent is the task that consumes this task's (blocking) output;
	// nil for the root task.
	Parent *Task
	// Children are the tasks that must complete before this one starts.
	Children []*Task
	// Level is the blocking distance from the root task (root = 0).
	// MinShelf schedules a task in phase Level, as close to the root as
	// the precedence constraints allow.
	Level int
}

// Name renders a compact label listing the task's operators.
func (tk *Task) Name() string {
	names := make([]string, len(tk.Ops))
	for i, op := range tk.Ops {
		names[i] = op.Name
	}
	return "{" + strings.Join(names, " ") + "}"
}

// TaskTree is the query task tree of Figure 1(c).
type TaskTree struct {
	// Tasks lists all tasks, indexed by ID.
	Tasks []*Task
	// Root is the task producing the query result.
	Root *Task
	// Height is the maximum task level.
	Height int
}

// NewTaskTree groups an operator tree's nodes into query tasks and
// derives the blocking structure. It also back-fills each operator's
// Task pointer. Tasks are numbered in order of their first operator,
// in five allocations whatever the tree's size.
func NewTaskTree(ot *OperatorTree) (*TaskTree, error) {
	if err := ot.Validate(); err != nil {
		return nil, err
	}
	// Union operators across pipeline edges.
	n := len(ot.Ops)
	ints := make([]int, 3*n)
	parent, taskOf, count := ints[:n], ints[n:2*n], ints[2*n:]
	for i := range parent {
		parent[i], taskOf[i] = i, -1
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, op := range ot.Ops {
		if op.Consumer != nil && op.ConsumerEdge == Pipeline {
			parent[find(op.ID)] = find(op.Consumer.ID)
		}
	}

	// Number the tasks from their roots, count their operators, and lay
	// each task's list out as a window of one slab.
	nt := 0
	for _, op := range ot.Ops {
		r := find(op.ID)
		if taskOf[r] < 0 {
			taskOf[r] = nt
			nt++
		}
		taskOf[op.ID] = taskOf[r]
		count[taskOf[r]]++
	}
	tasks := make([]Task, nt)
	opSlab := make([]*Operator, n)
	for i := range tasks {
		tasks[i].ID = i
		tasks[i].Ops, opSlab = opSlab[:0:count[i]], opSlab[count[i]:]
	}
	for _, op := range ot.Ops {
		tk := &tasks[taskOf[op.ID]]
		tk.Ops = append(tk.Ops, op)
		op.Task = tk
	}

	// Blocking edges between tasks: count each parent's children, then
	// link them in operator order.
	clear(count)
	edges := 0
	for _, op := range ot.Ops {
		if op.Consumer != nil && op.ConsumerEdge == Blocking {
			if op.Task == op.Consumer.Task {
				return nil, fmt.Errorf("plan: blocking edge %q -> %q inside one task",
					op.Name, op.Consumer.Name)
			}
			count[op.Consumer.Task.ID]++
			edges++
		}
	}
	ptrs := make([]*Task, 2*nt+edges)
	tt := &TaskTree{Tasks: ptrs[:nt:nt]}
	ptrs = ptrs[nt:]
	for i := range tasks {
		tt.Tasks[i] = &tasks[i]
		tasks[i].Children, ptrs = ptrs[:0:count[i]], ptrs[count[i]:]
	}
	for _, op := range ot.Ops {
		if op.Consumer != nil && op.ConsumerEdge == Blocking {
			child, par := op.Task, op.Consumer.Task
			child.Parent = par
			par.Children = append(par.Children, child)
		}
	}

	tt.Root = ot.Root.Task
	if tt.Root.Parent != nil {
		return nil, fmt.Errorf("plan: root task has a parent")
	}

	// Levels by BFS from the root (MinShelf: level = parent level + 1),
	// queued in the slab's last len(Tasks) slots.
	queue := append(ptrs[:0], tt.Root)
	for i := 0; i < len(queue); i++ {
		tk := queue[i]
		tt.Height = max(tt.Height, tk.Level)
		for _, c := range tk.Children {
			c.Level = tk.Level + 1
			queue = append(queue, c)
		}
	}
	return tt, nil
}

// MustNewTaskTree is NewTaskTree that panics on error.
func MustNewTaskTree(ot *OperatorTree) *TaskTree {
	tt, err := NewTaskTree(ot)
	if err != nil {
		panic(err)
	}
	return tt
}

// PhasePolicy selects how tasks are packed into synchronized phases.
type PhasePolicy int

const (
	// MinShelf is the paper's policy (Tan & Lu): each task runs in the
	// phase closest to the root that respects the blocking constraints —
	// as LATE as possible. Shallow subtrees finish just before their
	// consumers, keeping early phases lean.
	MinShelf PhasePolicy = iota
	// EarliestShelf runs each task as EARLY as possible: all leaf tasks
	// in phase 0, each parent right after its slowest child chain. Early
	// phases are crowded, late phases sparse — the natural ablation
	// against MinShelf.
	EarliestShelf
)

// String names the policy.
func (p PhasePolicy) String() string {
	if p == EarliestShelf {
		return "earliest-shelf"
	}
	return "min-shelf"
}

// Phases returns the synchronized execution phases under the MinShelf
// policy, in execution order: Phases()[0] runs first and contains the
// deepest tasks (level == Height); the last phase contains only the
// root task. Within a phase all tasks are independent (no blocking path
// connects them), matching Section 5.4's requirement.
func (tt *TaskTree) Phases() [][]*Task {
	return tt.PhasesBy(MinShelf)
}

// PhasesBy returns the synchronized phases under the given policy. Both
// policies produce Height+1 phases with the root task alone in the last
// one; they differ in where tasks from shallow subtrees land. Within a
// phase tasks keep their tree order. The phases are counted first and
// laid out as capacity-limited windows of one slab, so the lists take
// two allocations under MinShelf whatever the tree's size.
func (tt *TaskTree) PhasesBy(policy PhasePolicy) [][]*Task {
	phases, _ := tt.PhasesInto(policy, nil, nil)
	return phases
}

// PhasesInto is PhasesBy laid out in caller-owned buffers: phases and
// slab are reused where their capacities hold Height+1 lists and every
// task, and replaced otherwise, so under MinShelf a caller that passes
// its buffers back allocates nothing once they are large enough. It
// returns the lists and the whole slab they are windows of; the lists
// alias the slab, so the caller must not pass it back while a list is
// still read elsewhere.
func (tt *TaskTree) PhasesInto(policy PhasePolicy, phases [][]*Task, slab []*Task) ([][]*Task, []*Task) {
	var asap map[*Task]int
	var level func(tk *Task) int
	if policy == EarliestShelf {
		asap = make(map[*Task]int, len(tt.Tasks))
		level = func(tk *Task) int {
			if l, ok := asap[tk]; ok {
				return l
			}
			l := 0
			for _, c := range tk.Children {
				if cl := level(c) + 1; cl > l {
					l = cl
				}
			}
			asap[tk] = l
			return l
		}
	}
	phaseOf := func(tk *Task) int {
		if level != nil {
			return level(tk)
		}
		return tt.Height - tk.Level // MinShelf
	}
	// Each phase's length counts its tasks first; the slab has room for
	// every count.
	if cap(phases) < tt.Height+1 {
		phases = make([][]*Task, tt.Height+1)
	} else {
		phases = phases[:tt.Height+1]
		clear(phases)
	}
	if cap(slab) < len(tt.Tasks) {
		slab = make([]*Task, len(tt.Tasks))
	}
	slab = slab[:len(tt.Tasks)]
	for _, tk := range tt.Tasks {
		i := phaseOf(tk)
		phases[i] = slab[:len(phases[i])+1]
	}
	rest := slab
	for i, ph := range phases {
		n := len(ph)
		phases[i], rest = rest[:0:n], rest[n:]
	}
	for _, tk := range tt.Tasks {
		i := phaseOf(tk)
		phases[i] = append(phases[i], tk)
	}
	return phases, slab
}

// Validate checks the task-tree invariants: every operator in exactly
// one task, levels consistent with parents and with Height (PhasesBy
// indexes by Height − Level), and no blocking edge inside a phase.
func (tt *TaskTree) Validate() error {
	if tt.Root == nil {
		return fmt.Errorf("plan: task tree has no root")
	}
	if tt.Root.Level != 0 {
		return fmt.Errorf("plan: root task at level %d, want 0", tt.Root.Level)
	}
	nOps := 0
	for _, tk := range tt.Tasks {
		nOps += len(tk.Ops)
	}
	// By operator ID, dense from 0; on the stack for trees of up to 63
	// joins, so validating a plan search's candidates allocates nothing.
	var small [192]bool
	seen := small[:]
	if nOps > len(small) {
		seen = make([]bool, nOps)
	}
	seen = seen[:nOps]
	height := 0
	for i, tk := range tt.Tasks {
		if tk.ID != i {
			return fmt.Errorf("plan: task %d has ID %d", i, tk.ID)
		}
		if len(tk.Ops) == 0 {
			return fmt.Errorf("plan: task %d is empty", i)
		}
		for _, op := range tk.Ops {
			if op.ID < 0 || op.ID >= nOps {
				return fmt.Errorf("plan: operator %q has ID %d outside [0, %d)", op.Name, op.ID, nOps)
			}
			if seen[op.ID] {
				return fmt.Errorf("plan: operator %q in two tasks", op.Name)
			}
			seen[op.ID] = true
			if op.Task != tk {
				return fmt.Errorf("plan: operator %q Task pointer mismatch", op.Name)
			}
			if op.Spec.InTuples < 0 || op.Spec.ResultTuples < 0 {
				return fmt.Errorf("plan: operator %q has a negative cardinality", op.Name)
			}
		}
		// A task sits one level below its parent, so the two never share
		// a MinShelf phase (phase = Height − Level).
		if tk.Parent != nil && tk.Level != tk.Parent.Level+1 {
			return fmt.Errorf("plan: task %d level %d, parent level %d",
				tk.ID, tk.Level, tk.Parent.Level)
		}
		if tk.Parent == nil && tk != tt.Root {
			return fmt.Errorf("plan: task %d is an orphan", tk.ID)
		}
		if tk.Level < 0 || tk.Level > tt.Height {
			return fmt.Errorf("plan: task %d level %d outside [0, height %d]", tk.ID, tk.Level, tt.Height)
		}
		height = max(height, tk.Level)
	}
	if height != tt.Height {
		return fmt.Errorf("plan: height %d but deepest task at level %d", tt.Height, height)
	}
	return nil
}
