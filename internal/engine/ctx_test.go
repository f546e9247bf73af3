package engine

import (
	"context"
	"errors"
	"testing"

	"mdrs/internal/plan"
)

func TestRunCtxPreCancelled(t *testing.T) {
	p := join(leaf("A", 2000), leaf("B", 500))
	ds := MustGenerate(p, 3)
	s := scheduleFor(t, p, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := testEngine().RunCtx(ctx, ds, s); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestRunCtxMidRunCancellation cancels the context from inside a clone
// (via the failClone hook, which runs just before the ctx check): that
// clone's ctx check must observe the cancellation and abort the run.
func TestRunCtxMidRunCancellation(t *testing.T) {
	p := join(join(leaf("A", 3000), leaf("B", 1200)), leaf("C", 900))
	ds := MustGenerate(p, 7)
	s := scheduleFor(t, p, 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := testEngine()
	fired := false
	e.failClone = func(op *plan.Operator, k int) error {
		if !fired {
			fired = true
			cancel()
		}
		return nil
	}
	if _, err := e.RunCtx(ctx, ds, s); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if !fired {
		t.Fatal("hook never ran")
	}
}

func TestRunCtxCompletedMatchesRun(t *testing.T) {
	p := join(leaf("A", 2000), leaf("B", 500))
	ds := MustGenerate(p, 3)
	s := scheduleFor(t, p, 8)
	e := testEngine()
	plain, err := e.Run(ds, s)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := e.RunCtx(context.Background(), ds, s)
	if err != nil {
		t.Fatal(err)
	}
	if plain.ResultTuples != withCtx.ResultTuples || plain.Measured != withCtx.Measured {
		t.Fatalf("live context changed the run: %+v vs %+v", plain, withCtx)
	}
}
