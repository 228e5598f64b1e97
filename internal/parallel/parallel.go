// Package parallel provides the bounded-concurrency primitives TradeFL's
// fan-outs are built on (fleet batches, fl/tensor matmul, chain batch
// signature checks): a worker pool sized from GOMAXPROCS and an index
// fan-out with a context-aware variant.
//
// Determinism contract: every helper assigns work by index, so callers
// that write results into per-index slots observe the same results
// regardless of worker count or scheduling. Workers pull indices from a
// shared atomic counter (dynamic load balancing), which is safe because
// result slots are disjoint per index.
package parallel

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"tradefl/internal/obs"
)

// Pool telemetry. Updates happen once per fan-out (never per index), so a
// fine-grained fan-out like a blocked tensor kernel pays two atomic
// operations total, not one per row.
var (
	mFanouts = obs.NewCounter("tradefl_pool_fanouts_total", "parallel fan-outs dispatched (For/ForCtxLabeled with >1 worker)")
	mBusySec = obs.NewGauge("tradefl_pool_worker_busy_seconds_total", "cumulative worker-seconds spent inside fan-outs (utilization = rate / workers)")
)

// track records one parallel fan-out over `workers` goroutines; the
// returned func adds its worker-seconds.
func track(workers int) func() {
	mFanouts.Inc()
	start := time.Now()
	return func() { mBusySec.Add(time.Since(start).Seconds() * float64(workers)) }
}

// Default returns the default worker count, runtime.GOMAXPROCS(0).
func Default() int { return runtime.GOMAXPROCS(0) }

// Resolve maps a Workers option value to an effective worker count:
// 0 → Default(), negative → 1.
func Resolve(workers int) int {
	switch {
	case workers == 0:
		return Default()
	case workers < 0:
		return 1
	default:
		return workers
	}
}

// PhaseLabel is the pprof label key worker goroutines are tagged with, so
// CPU profiles (`go tool pprof -tagfocus`) attribute samples to solver
// phases (fleet batch, chain batch verification).
const PhaseLabel = "tradefl_phase"

// labeled wraps a worker body in runtime/pprof.Do under PhaseLabel=label;
// an empty label runs the body directly (no context or label-map cost).
func labeled(label string, body func()) {
	if label == "" {
		body()
		return
	}
	pprof.Do(context.Background(), pprof.Labels(PhaseLabel, label), func(context.Context) { body() })
}

// For runs fn(i) for every i in [0, n), using at most workers goroutines.
// workers ≤ 1 or n ≤ 1 runs inline on the calling goroutine in index
// order. It returns when every call has completed.
func For(workers, n int, fn func(i int)) { ForLabeled("", workers, n, fn) }

// ForLabeled is For with worker goroutines carrying the pprof phase label.
// The inline path (workers ≤ 1) skips labeling: it runs on the caller's
// goroutine, whose labels belong to the caller.
func ForLabeled(label string, workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	defer track(workers)()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			labeled(label, func() {
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					fn(i)
				}
			})
		}()
	}
	wg.Wait()
}

// ForCtxLabeled is ForLabeled with cooperative cancellation: workers stop
// picking up new indices once ctx is cancelled or any fn returns an error.
// It returns the error of the lowest index that failed (deterministic), or
// ctx.Err() when cancelled with no fn error. Indices already started always
// run to completion.
func ForCtxLabeled(ctx context.Context, label string, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	defer track(workers)()
	var (
		next    atomic.Int64
		stopped atomic.Bool
		mu      sync.Mutex
		firstI  = n
		firstE  error
	)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			labeled(label, func() {
				for !stopped.Load() && ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					if err := fn(i); err != nil {
						mu.Lock()
						if i < firstI {
							firstI, firstE = i, err
						}
						mu.Unlock()
						stopped.Store(true)
						return
					}
				}
			})
		}()
	}
	wg.Wait()
	if firstE != nil {
		return firstE
	}
	return ctx.Err()
}
