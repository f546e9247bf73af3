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

	nextJoin int // next join ID to assign during expansion
}

// Expand macro-expands a validated execution plan into its operator
// tree. Every pipelined transfer is repartitioned (assumption A5), so
// scans and probes send their output over the interconnect and builds
// and probes receive their input over it; the root streams its result
// to the client over the network.
func Expand(p *query.PlanNode) (*OperatorTree, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("plan: expanding invalid plan: %w", err)
	}
	t := &OperatorTree{Joins: p.Joins()}
	root := t.expand(p)
	t.Root = root
	return t, nil
}

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
func ExpandMaterialized(p *query.PlanNode) (*OperatorTree, error) {
	t, err := Expand(p)
	if err != nil {
		return nil, err
	}
	producer := t.Root
	// The producer now feeds the store over the interconnect instead of
	// streaming to the client; its NetOut flag already reflects that.
	store := t.newOp(costmodel.Store, "store(result)", -1, p, costmodel.OpSpec{
		Kind:         costmodel.Store,
		InTuples:     p.Tuples,
		ResultTuples: p.Tuples,
		NetIn:        true,
	})
	producer.Consumer, producer.ConsumerEdge = store, Pipeline
	t.Root = store
	return t, nil
}

func (t *OperatorTree) newOp(kind costmodel.OpKind, name string, joinID int, src *query.PlanNode, spec costmodel.OpSpec) *Operator {
	op := &Operator{
		ID:     len(t.Ops),
		Kind:   kind,
		Spec:   spec,
		Name:   name,
		JoinID: joinID,
		Source: src,
	}
	t.Ops = append(t.Ops, op)
	return op
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
		return t.newOp(costmodel.Scan, "scan("+n.Relation.Name+")", -1, n, ScanSpec(n))
	}

	inner := t.expand(n.Inner)
	outer := t.expand(n.Outer)

	jid := t.nextJoin
	t.nextJoin++
	j := strconv.Itoa(jid)
	build := t.newOp(costmodel.Build, "build(J"+j+")", jid, n, BuildSpec(n))
	probe := t.newOp(costmodel.Probe, "probe(J"+j+")", jid, n, ProbeSpec(n))
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
// Task pointer.
func NewTaskTree(ot *OperatorTree) (*TaskTree, error) {
	if err := ot.Validate(); err != nil {
		return nil, err
	}
	// Union operators across pipeline edges.
	parent := make([]int, len(ot.Ops))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, op := range ot.Ops {
		if op.Consumer != nil && op.ConsumerEdge == Pipeline {
			union(op.ID, op.Consumer.ID)
		}
	}

	tt := &TaskTree{}
	byRoot := map[int]*Task{}
	taskOf := func(op *Operator) *Task {
		r := find(op.ID)
		tk, ok := byRoot[r]
		if !ok {
			tk = &Task{ID: len(tt.Tasks)}
			tt.Tasks = append(tt.Tasks, tk)
			byRoot[r] = tk
		}
		return tk
	}
	for _, op := range ot.Ops {
		tk := taskOf(op)
		tk.Ops = append(tk.Ops, op)
		op.Task = tk
	}

	// Blocking edges between tasks.
	for _, op := range ot.Ops {
		if op.Consumer != nil && op.ConsumerEdge == Blocking {
			child, par := op.Task, op.Consumer.Task
			if child == par {
				return nil, fmt.Errorf("plan: blocking edge %q -> %q inside one task",
					op.Name, op.Consumer.Name)
			}
			child.Parent = par
			par.Children = append(par.Children, child)
		}
	}

	tt.Root = ot.Root.Task
	if tt.Root.Parent != nil {
		return nil, fmt.Errorf("plan: root task has a parent")
	}

	// Levels by BFS from the root (MinShelf: level = parent level + 1).
	tt.assignLevels()
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

func (tt *TaskTree) assignLevels() {
	tt.Height = 0
	queue := []*Task{tt.Root}
	tt.Root.Level = 0
	for len(queue) > 0 {
		tk := queue[0]
		queue = queue[1:]
		if tk.Level > tt.Height {
			tt.Height = tk.Level
		}
		for _, c := range tk.Children {
			c.Level = tk.Level + 1
			queue = append(queue, c)
		}
	}
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
// one; they differ in where tasks from shallow subtrees land.
func (tt *TaskTree) PhasesBy(policy PhasePolicy) [][]*Task {
	phases := make([][]*Task, tt.Height+1)
	switch policy {
	case EarliestShelf:
		asap := make(map[*Task]int, len(tt.Tasks))
		var level func(tk *Task) int
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
		for _, tk := range tt.Tasks {
			phases[level(tk)] = append(phases[level(tk)], tk)
		}
	default: // MinShelf
		for _, tk := range tt.Tasks {
			idx := tt.Height - tk.Level
			phases[idx] = append(phases[idx], tk)
		}
	}
	return phases
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
	seen := make([]bool, nOps) // by operator ID, dense from 0
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
