package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if got := Resolve(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Resolve(-3); got != 1 {
		t.Fatalf("Resolve(-3) = %d, want 1", got)
	}
	if got := Resolve(7); got != 7 {
		t.Fatalf("Resolve(7) = %d, want 7", got)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 1000
		var hits [n]atomic.Int64
		For(workers, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, got)
			}
		}
	}
}

func TestForZeroAndNegativeN(t *testing.T) {
	called := false
	For(4, 0, func(int) { called = true })
	For(4, -1, func(int) { called = true })
	if called {
		t.Fatal("fn called for n <= 0")
	}
}

func TestForCtxFirstError(t *testing.T) {
	wantErr := errors.New("boom")
	err := ForCtxLabeled(context.Background(), "", 4, 100, func(i int) error {
		if i%10 == 3 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("ForCtxLabeled error = %v, want %v", err, wantErr)
	}
}

func TestForCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := ForCtxLabeled(ctx, "", 4, 1000, func(i int) error { ran.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForCtxLabeled error = %v, want context.Canceled", err)
	}
	if ran.Load() == 1000 {
		t.Fatal("cancellation did not stop the fan-out early")
	}
}
