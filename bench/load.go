package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// opFunc is one closed-loop operation of one client: k counts the
// client's operations from 0, measured says whether the operation counts
// (so the client may keep evidence for the output checker). It returns the
// user-visible latency and the number of ops the operation stands for
// (1 request, 64 solved instances, ...).
type opFunc func(client, k int, measured bool) (latency time.Duration, ops int, err error)

// loop is a closed loop of clients: each sends its next operation only
// after the previous one completed, so the loop builds no queue and a
// slower system simply receives less load.
type loop struct {
	op   opFunc
	next []int // per client: index of its next operation
}

func newLoop(clients int, op opFunc) *loop {
	return &loop{op: op, next: make([]int, clients)}
}

// stretch is what one uninterrupted run of the loop measured.
type stretch struct {
	latencies []time.Duration // one per successful operation
	ops       int             // ops completed successfully
	attempted int             // operations attempted
	failed    int             // of those, the ones that returned an error
	rate      float64         // ops/s: Σ over clients of ops ÷ that client's own busy interval
	errs      []error         // first few failures, for the log
}

// run drives every client until the deadline: no operation starts at or
// after it, and run returns when the last one in flight completed. Each
// client's rate is taken over its own interval from its first start to its
// last completion, so no operation is cut in half at either edge.
func (l *loop) run(ctx context.Context, until time.Time, measured bool) stretch {
	type clientResult struct {
		stretch
		first, last time.Time
	}
	results := make([]clientResult, len(l.next))
	var wg sync.WaitGroup
	for c := range results {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &results[c]
			for ctx.Err() == nil {
				start := time.Now()
				if !start.Before(until) {
					break
				}
				k := l.next[c]
				l.next[c]++
				lat, ops, err := l.op(c, k, measured)
				if r.first.IsZero() {
					r.first = start
				}
				r.last = time.Now()
				r.attempted++
				if err != nil {
					r.failed++
					if len(r.errs) < 3 {
						r.errs = append(r.errs, fmt.Errorf("client %d op %d: %w", c, k, err))
					}
					continue
				}
				r.ops += ops
				r.latencies = append(r.latencies, lat)
			}
		}(c)
	}
	wg.Wait()

	var total stretch
	for i := range results {
		r := &results[i]
		total.latencies = append(total.latencies, r.latencies...)
		total.ops += r.ops
		total.attempted += r.attempted
		total.failed += r.failed
		total.errs = append(total.errs, r.errs...)
		if busy := r.last.Sub(r.first).Seconds(); busy > 0 {
			total.rate += float64(r.ops) / busy
		}
	}
	return total
}

// The measured window is cut into slices of load, each between two runs of
// the calibration kernel (calib.go), so that every slice knows how fast the
// host was while it ran.
const (
	sliceLoad  = 2 * time.Second
	sliceCalib = 400 * time.Millisecond
)

// loadSpec describes one measured window.
type loadSpec struct {
	clients        int
	warmup, window time.Duration
	op             opFunc
	// cpu reads the CPU seconds consumed so far by the process hosting the
	// system under test.
	cpu func() (float64, error)
	// atStart runs after warm-up, with no operation in flight: the place
	// for window-start readings of counters.
	atStart func() error
}

// loadResult is a measured window, in reference time: every duration was
// multiplied by the host speed of the slice it was measured in (see
// calibrator), so a run on a host that a neighbour slowed down for a
// while reports what the same run would have measured at nominal speed.
// The raw fields keep the wall-clock view for the log.
type loadResult struct {
	latencies []float64 // ms, reference time, ascending
	ops       int
	attempted int
	failed    int
	rate      float64 // ops per reference second
	cpuSec    float64 // reference CPU seconds
	wallSec   float64 // wall time of the load stretches
	errs      []error

	rawRate   float64 // ops per wall second
	rawCPUSec float64
	speeds    []float64 // host speed of each slice, relative to nominal
}

// runLoad warms the system up, then alternates calibration and load
// slices for about spec.window. speed measures the host's current speed
// relative to nominal for the given time (calibrator.speed).
func runLoad(ctx context.Context, spec loadSpec, speed func(time.Duration) (float64, error)) (loadResult, error) {
	var res loadResult
	l := newLoop(spec.clients, spec.op)
	l.run(ctx, time.Now().Add(spec.warmup), false)
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if err := spec.atStart(); err != nil {
		return res, fmt.Errorf("window-start readings: %w", err)
	}

	period := sliceLoad + sliceCalib
	slices := max(1, int(spec.window/period))
	load := spec.window/time.Duration(slices) - sliceCalib
	if load < sliceCalib { // a window too short to slice: half load, half calibration
		load = spec.window / 2
	}

	before, err := speed(sliceCalib)
	if err != nil {
		return res, err
	}
	var refTime, rawTime float64 // Σ over slices of the time the slice's ops took
	for range slices {
		cpu0, err := spec.cpu()
		if err != nil {
			return res, err
		}
		start := time.Now()
		s := l.run(ctx, start.Add(load), true)
		res.wallSec += time.Since(start).Seconds()
		cpu1, err := spec.cpu()
		if err != nil {
			return res, err
		}
		if err := ctx.Err(); err != nil {
			return res, err
		}
		if err := waitQuiet(spec.cpu); err != nil {
			return res, err
		}
		after, err := speed(sliceCalib)
		if err != nil {
			return res, err
		}
		host := (before + after) / 2
		before = after

		for _, d := range s.latencies {
			res.latencies = append(res.latencies, host*msf(d))
		}
		res.ops += s.ops
		res.attempted += s.attempted
		res.failed += s.failed
		res.errs = append(res.errs, s.errs...)
		if s.rate > 0 {
			rawTime += float64(s.ops) / s.rate
			refTime += host * float64(s.ops) / s.rate
		}
		res.rawCPUSec += cpu1 - cpu0
		res.cpuSec += host * (cpu1 - cpu0)
		res.speeds = append(res.speeds, host)
	}
	sort.Float64s(res.latencies)
	res.rate = ratio(float64(res.ops), refTime)
	res.rawRate = ratio(float64(res.ops), rawTime)
	return res, nil
}

// waitQuiet returns once the system under test has stopped burning CPU
// (or after a second). A server that just stopped receiving load still
// finishes background work — a concurrent collection of a gigabyte heap
// takes both CPUs for hundreds of milliseconds — and the calibration kernel
// must not share the CPUs with it.
func waitQuiet(cpu func() (float64, error)) error {
	const (
		probe = 50 * time.Millisecond
		quiet = 0.015 // CPU seconds per probe: one 10 ms accounting tick, and change
	)
	last, err := cpu()
	for deadline := time.Now().Add(time.Second); err == nil && time.Now().Before(deadline); {
		time.Sleep(probe)
		var now float64
		if now, err = cpu(); now-last < quiet {
			break
		}
		last = now
	}
	return err
}

// pacedSample is one read of a paced (open-loop) reader.
type pacedSample struct {
	latency time.Duration // completion − due time: a stall charges every read it delays
	late    time.Duration // actual start − due time: how far the generator ran behind
}

// runPaced issues op once per period until stop reports true, one read at
// a time. Read i is due at start+i·period whether or not earlier reads
// finished on time, and its latency counts from that due instant, so a
// stall that blocks the reader is charged to every read it delayed.
// now and sleep are parameters so a test can drive the schedule with a
// synthetic clock.
func runPaced(period time.Duration, now func() time.Time, sleep func(time.Duration), stop func() bool, op func(i int)) []pacedSample {
	var samples []pacedSample
	start := now()
	for i := 0; !stop(); i++ {
		due := start.Add(time.Duration(i) * period)
		if wait := due.Sub(now()); wait > 0 {
			sleep(wait)
			if stop() {
				break
			}
		}
		begun := now()
		op(i)
		samples = append(samples, pacedSample{latency: now().Sub(due), late: max(begun.Sub(due), 0)})
	}
	return samples
}
