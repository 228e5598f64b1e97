// Package parallel provides the bounded-concurrency primitives TradeFL's
// solver hot paths are built on: a worker pool sized from GOMAXPROCS,
// ordered fan-out/fan-in helpers, context-aware variants, and an atomic
// float64 maximum used as the shared incumbent bound of branch-and-bound
// searches.
//
// Determinism contract: every helper assigns work by index and returns (or
// writes) results in index order, so callers that reduce over the results
// in index order observe exactly the serial iteration order regardless of
// worker count or scheduling. Workers pull indices from a shared atomic
// counter (dynamic load balancing), which is safe because result slots are
// disjoint per index.
package parallel

import (
	"context"
	"math"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"tradefl/internal/obs"
)

// Pool telemetry. Updates happen once per fan-out (never per index), so a
// fine-grained fan-out like a blocked tensor kernel pays four atomic
// operations total, not one per row.
var (
	mFanouts = obs.NewCounter("tradefl_pool_fanouts_total", "parallel fan-outs dispatched (For/ForCtx/Map with >1 worker)")
	mTasks   = obs.NewCounter("tradefl_pool_tasks_total", "work items processed by parallel fan-outs")
	mActive  = obs.NewGauge("tradefl_pool_workers_active", "worker goroutines currently inside a fan-out")
	mQueued  = obs.NewGauge("tradefl_pool_queue_depth", "work items admitted to in-flight fan-outs")
	mBusySec = obs.NewGauge("tradefl_pool_worker_busy_seconds_total", "cumulative worker-seconds spent inside fan-outs (utilization = rate / workers)")
	mFanSec  = obs.NewHistogram("tradefl_pool_fanout_seconds", "wall time of one parallel fan-out", obs.ExpBuckets(1e-6, 4, 12))
)

// track records one parallel fan-out of n items over `workers` goroutines;
// the returned func finishes the bookkeeping.
func track(workers, n int) func() {
	mFanouts.Inc()
	mTasks.Add(int64(n))
	mActive.Add(float64(workers))
	mQueued.Add(float64(n))
	start := time.Now()
	return func() {
		dt := time.Since(start).Seconds()
		mActive.Add(float64(-workers))
		mQueued.Add(float64(-n))
		mBusySec.Add(dt * float64(workers))
		mFanSec.Observe(dt)
	}
}

// defaultWorkers overrides the process-wide default worker count when
// positive; 0 means "use GOMAXPROCS". Set from CLI flags (-workers).
var defaultWorkers atomic.Int64

// SetDefault sets the process-wide default worker count used when a
// Workers option is left at zero. n ≤ 0 restores the GOMAXPROCS default.
func SetDefault(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Default returns the process-wide default worker count: the value set by
// SetDefault, or runtime.GOMAXPROCS(0).
func Default() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

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
// phases (pruned/traversal master kernels, fleet batch).
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
	defer track(workers, n)()
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

// ForCtx is For with cooperative cancellation: workers stop picking up new
// indices once ctx is cancelled or any fn returns an error. It returns the
// error of the lowest index that failed (deterministic), or ctx.Err() when
// cancelled with no fn error. Indices already started always run to
// completion.
func ForCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	return ForCtxLabeled(ctx, "", workers, n, fn)
}

// ForCtxLabeled is ForCtx with worker goroutines carrying the pprof phase
// label (see ForLabeled).
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
	defer track(workers, n)()
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

// Map runs fn(i) for every i in [0, n) under at most workers goroutines
// and returns the results in index order.
func Map[T any](workers, n int, fn func(i int) T) []T {
	return MapInto(nil, workers, n, fn)
}

// MapLabeled is Map with worker goroutines carrying the pprof phase label.
func MapLabeled[T any](label string, workers, n int, fn func(i int) T) []T {
	var dst []T
	if cap(dst) < n {
		dst = make([]T, n)
	}
	dst = dst[:n]
	ForLabeled(label, workers, n, func(i int) { dst[i] = fn(i) })
	return dst
}

// MapInto is Map writing into caller-provided storage: dst is resized (or
// freshly allocated when its capacity is short) to n entries and returned.
// Steady-state callers that reuse dst across fan-outs allocate nothing for
// the result slice. Slots are disjoint per index, so the determinism
// contract is unchanged.
func MapInto[T any](dst []T, workers, n int, fn func(i int) T) []T {
	if cap(dst) < n {
		dst = make([]T, n)
	}
	dst = dst[:n]
	For(workers, n, func(i int) { dst[i] = fn(i) })
	return dst
}

// MaxFloat64 is an atomic running maximum over float64 values, used as the
// shared incumbent bound of parallel branch-and-bound searches. The zero
// value is ready to use and loads as -Inf.
//
// Values are stored under a monotone encoding (sign-flipped IEEE bits) so
// float ordering matches uint64 ordering and the zero bit pattern sorts
// below every encoded float — the zero value needs no initialization.
type MaxFloat64 struct {
	enc atomic.Uint64
}

// encodeFloat maps a float64 to a uint64 whose unsigned ordering matches
// the float ordering, with every encoding strictly positive.
func encodeFloat(v float64) uint64 {
	b := math.Float64bits(v)
	if b&(1<<63) != 0 {
		return ^b // negative: reverse order
	}
	return b | 1<<63
}

// Load returns the current maximum (-Inf before any Update).
func (m *MaxFloat64) Load() float64 {
	e := m.enc.Load()
	if e == 0 {
		return math.Inf(-1)
	}
	if e&(1<<63) != 0 {
		return math.Float64frombits(e &^ (1 << 63))
	}
	return math.Float64frombits(^e)
}

// Update raises the maximum to v if v is larger. It reports whether v
// became the new maximum. NaN is ignored.
func (m *MaxFloat64) Update(v float64) bool {
	if math.IsNaN(v) {
		return false
	}
	e := encodeFloat(v)
	for {
		old := m.enc.Load()
		if e <= old {
			return false
		}
		if m.enc.CompareAndSwap(old, e) {
			return true
		}
	}
}
