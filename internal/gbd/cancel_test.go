package gbd

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// cancelAfter reports context.Canceled from its (left+1)-th Err call on.
// SolveCtx polls Err once per master iteration, so the count is the number
// of iterations the solve was allowed to start.
type cancelAfter struct {
	context.Context
	left int
}

func (c *cancelAfter) Err() error {
	if c.left > 0 {
		c.left--
		return nil
	}
	return context.Canceled
}

// TestSolveCtxCancellation: a cancelled context stops the solve before the
// next master iteration — so exactly as many primal problems are solved as
// iterations were allowed — the error wraps the context's, and the solver
// goes back to the pool in working order.
func TestSolveCtxCancellation(t *testing.T) {
	cfg := defaultGame(t, 7)
	want, err := Solve(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Iterations < 3 {
		t.Fatalf("instance converges in %d iterations; the test needs at least 3", want.Iterations)
	}
	for _, allowed := range []int{0, 1, 2} {
		before := mPrimalSec.Count()
		res, err := SolveCtx(&cancelAfter{Context: context.Background(), left: allowed}, cfg, Options{})
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("allowed=%d: SolveCtx = (%v, %v), want (nil, context.Canceled)", allowed, res, err)
		}
		if primals := mPrimalSec.Count() - before; primals != int64(allowed) {
			t.Errorf("allowed=%d: %d primal solves ran, want exactly %d", allowed, primals, allowed)
		}
		// Whichever solver the next solve draws — the cancelled one included
		// — must behave like new.
		got, err := Solve(cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("allowed=%d: solve after a cancelled one differs", allowed)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveCtx(ctx, cfg, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestSolveCtxUncancelledMatchesSolve: threading a live context through the
// solver changes no output bit.
func TestSolveCtxUncancelledMatchesSolve(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, cfg := range gbdGames(t) {
		want, err := Solve(cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := SolveCtx(ctx, cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("SolveCtx under a live context differs from Solve\ngot:  %+v\nwant: %+v", got, want)
		}
	}
}
