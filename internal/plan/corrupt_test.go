package plan

import (
	"math/rand"
	"testing"

	"mdrs/internal/costmodel"
	"mdrs/internal/query"
)

// freshTrees builds a pristine operator tree + task tree for mutation.
func freshTrees(t *testing.T) (*OperatorTree, *TaskTree) {
	t.Helper()
	r := rand.New(rand.NewSource(47))
	p := query.MustRandom(r, query.DefaultGenConfig(5))
	ot := MustExpand(p)
	tt := MustNewTaskTree(ot)
	return ot, tt
}

func TestOperatorTreeValidateDetectsCorruptions(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(ot *OperatorTree)
	}{
		{"no root", func(ot *OperatorTree) { ot.Root = nil }},
		{"non-dense IDs", func(ot *OperatorTree) { ot.Ops[3].ID = 99 }},
		{"build feeding a scan", func(ot *OperatorTree) {
			for _, op := range ot.Ops {
				if op.Kind == costmodel.Build {
					op.Consumer = ot.Ops[0] // a scan
					return
				}
			}
		}},
		{"build edge downgraded to pipeline", func(ot *OperatorTree) {
			for _, op := range ot.Ops {
				if op.Kind == costmodel.Build {
					op.ConsumerEdge = Pipeline
					return
				}
			}
		}},
		{"probe unpaired", func(ot *OperatorTree) {
			for _, op := range ot.Ops {
				if op.Kind == costmodel.Probe {
					op.BuildOp = nil
					return
				}
			}
		}},
		{"probe paired with the wrong join", func(ot *OperatorTree) {
			var probes []*Operator
			for _, op := range ot.Ops {
				if op.Kind == costmodel.Probe {
					probes = append(probes, op)
				}
			}
			probes[0].BuildOp = probes[1].BuildOp
		}},
		{"root with a consumer", func(ot *OperatorTree) {
			ot.Root.Consumer = ot.Ops[0]
		}},
		{"join count drift", func(ot *OperatorTree) { ot.Joins++ }},
		{"consumer outside the tree", func(ot *OperatorTree) {
			other, _ := freshTrees(t)
			ot.Ops[0].Consumer = other.Ops[ot.Ops[0].Consumer.ID]
		}},
	}
	for _, c := range cases {
		ot, _ := freshTrees(t)
		if err := ot.Validate(); err != nil {
			t.Fatalf("%s: pristine tree rejected: %v", c.name, err)
		}
		c.mutate(ot)
		if err := ot.Validate(); err == nil {
			t.Errorf("%s: corruption not detected", c.name)
		}
	}
}

func TestTaskTreeValidateDetectsCorruptions(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(tt *TaskTree)
	}{
		{"no root", func(tt *TaskTree) { tt.Root = nil }},
		{"non-dense task IDs", func(tt *TaskTree) { tt.Tasks[1].ID = 42 }},
		{"empty task", func(tt *TaskTree) { tt.Tasks[1].Ops = nil }},
		{"level drift", func(tt *TaskTree) {
			for _, tk := range tt.Tasks {
				if tk.Parent != nil {
					tk.Level = tk.Parent.Level + 2
					return
				}
			}
		}},
		{"orphan task", func(tt *TaskTree) {
			for _, tk := range tt.Tasks {
				if tk.Parent != nil {
					tk.Parent = nil
					return
				}
			}
		}},
		{"operator stolen by another task", func(tt *TaskTree) {
			a, b := tt.Tasks[0], tt.Tasks[1]
			b.Ops = append(b.Ops, a.Ops[0])
		}},
		{"task pointer mismatch", func(tt *TaskTree) {
			tt.Tasks[0].Ops[0].Task = tt.Tasks[len(tt.Tasks)-1]
		}},
		// The next two made Validate index phases[Height-Level] at -1.
		{"root level not zero", func(tt *TaskTree) {
			for _, tk := range tt.Tasks {
				tk.Level++
			}
		}},
		{"height understates a level", func(tt *TaskTree) { tt.Height-- }},
		{"height overstates every level", func(tt *TaskTree) { tt.Height++ }},
		{"negative input cardinality", func(tt *TaskTree) { tt.Tasks[0].Ops[0].Spec.InTuples = -1 }},
		{"negative result cardinality", func(tt *TaskTree) { tt.Tasks[0].Ops[0].Spec.ResultTuples = -1 }},
	}
	for _, c := range cases {
		_, tt := freshTrees(t)
		if err := tt.Validate(); err != nil {
			t.Fatalf("%s: pristine task tree rejected: %v", c.name, err)
		}
		c.mutate(tt)
		if err := tt.Validate(); err == nil {
			t.Errorf("%s: corruption not detected", c.name)
		}
	}
}

func TestNewTaskTreeRejectsInvalidOperatorTree(t *testing.T) {
	ot, _ := freshTrees(t)
	ot.Root = nil
	if _, err := NewTaskTree(ot); err == nil {
		t.Fatal("invalid operator tree accepted")
	}
}

func TestExpandSourceLinks(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	p := query.MustRandom(r, query.DefaultGenConfig(6))
	ot := MustExpand(p)
	for _, op := range ot.Ops {
		if op.Source == nil {
			t.Fatalf("%s has no Source link", op.Name)
		}
		switch op.Kind {
		case costmodel.Scan:
			if !op.Source.IsLeaf() {
				t.Fatalf("scan %s sourced from a join node", op.Name)
			}
			if op.Spec.InTuples != op.Source.Relation.Tuples {
				t.Fatalf("scan %s cardinality mismatch", op.Name)
			}
		case costmodel.Build, costmodel.Probe:
			if op.Source.IsLeaf() {
				t.Fatalf("%s sourced from a leaf", op.Name)
			}
		}
	}
	// Build and probe of one join share the same source node.
	for _, op := range ot.Ops {
		if op.Kind == costmodel.Probe && op.Source != op.BuildOp.Source {
			t.Fatalf("probe %s and its build disagree on Source", op.Name)
		}
	}
}
