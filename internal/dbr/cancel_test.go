package dbr

import (
	"context"
	"errors"
	"testing"
)

// cancelAfter reports context.Canceled from its (left+1)-th Err call on.
// SolveCtx polls Err once per organization scan, on its own goroutine, so
// the count is the number of scans the solve was allowed to start.
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
// next organization's scan — none at all when it was cancelled up front —
// and the error wraps the context's.
func TestSolveCtxCancellation(t *testing.T) {
	cfg := defaultGame(t, 3)
	for _, allowed := range []int{0, 1, cfg.N() + 3} {
		before := mScans.Value()
		res, err := SolveCtx(&cancelAfter{Context: context.Background(), left: allowed}, cfg, nil, Options{})
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("allowed=%d: SolveCtx = (%v, %v), want (nil, context.Canceled)", allowed, res, err)
		}
		if scans := mScans.Value() - before; scans != int64(allowed) {
			t.Errorf("allowed=%d: %d scans ran after cancellation point, want exactly %d", allowed, scans, allowed)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveCtx(ctx, cfg, nil, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestSolveCtxUncancelledMatchesSolve: threading a live context through the
// solver changes no output bit.
func TestSolveCtxUncancelledMatchesSolve(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, cfg := range engineGames(t) {
		want, err := Solve(cfg, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := SolveCtx(ctx, cfg, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "SolveCtx", got, want)
	}
}
