// Command bench is the repository's performance ledger: end-to-end and
// per-layer numbers for a request entering tradefl-server and leaving
// solved, and for a solved game settling on the chain. Every later
// performance or simplification change is judged against it; see README.md
// in this directory and BENCHMARK.json at the repository root.
//
// Usage, from the repository root:
//
//	go run ./bench run --workload edge_sync --seed 1 --seconds 20 --trace 0
//	go run ./bench run --seed 1            every workload, both passes
//	go run ./bench repeat -sets 2          spread of repeated sets against the bounds
//
// The last line of run's standard output is one JSON object (correct,
// attempted, failed, metrics); everything else goes to standard error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"tradefl/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := dispatch(ctx, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func dispatch(ctx context.Context, args []string) error {
	if len(args) == 0 {
		return errors.New("usage: bench run|repeat [flags]")
	}
	// The layers run in this process too (traced passes, the settlement
	// chain); keep their info logs out of the result stream, as the server
	// child's -log-level error does.
	if err := obs.ConfigureLogging("error", "text", nil); err != nil {
		return err
	}
	switch args[0] {
	case "run":
		return cmdRun(ctx, args[1:])
	case "repeat":
		return cmdRepeat(ctx, args[1:])
	default:
		return fmt.Errorf("unknown command %q (want run or repeat)", args[0])
	}
}

// Run shape. setupRepeats set-ups are timed per run and their median
// reported, so one slow link does not decide setup_s.
const (
	defaultSeconds = 20
	warmupSeconds  = 2
	setupRepeats   = 3
)

// newEnv locates the module root and creates the run's scratch directory
// under bench/out; the returned cleanup removes it.
func newEnv(seed int64, seconds int) (*env, func(), error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, nil, errors.New("no go.mod above the working directory: run from the tradefl checkout")
		}
		root = parent
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "tradefl-server")); err != nil {
		return nil, nil, fmt.Errorf("%s is not the tradefl checkout: %w", root, err)
	}
	out := filepath.Join(root, "bench", "out")
	tmp := filepath.Join(out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, nil, err
	}
	e := &env{
		root: root, out: out, tmp: tmp, seed: seed,
		window:  time.Duration(seconds) * time.Second,
		warmup:  min(warmupSeconds*time.Second, time.Duration(seconds)*time.Second/4),
		clients: runtime.NumCPU(),
	}
	if e.cal, err = newCalibrator(e.clients); err != nil {
		os.RemoveAll(tmp)
		return nil, nil, err
	}
	return e, func() {
		if err := e.cal.close(); err != nil {
			e.logf("close calibration kernel: %v", err)
		}
		os.RemoveAll(tmp)
	}, nil
}

func cmdRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bench run", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: every workload, untraced and traced)")
	seed := fs.Int64("seed", 1, "workload seed: inputs are a pure function of it")
	seconds := fs.Int("seconds", defaultSeconds, "length of the measured window")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics, 1 adds the traced pass and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	e, cleanup, err := newEnv(*seed, *seconds)
	if err != nil {
		return err
	}
	defer cleanup()
	e.logf("%d cpus, %s, out dir on %s", runtime.NumCPU(), runtime.Version(), fsType(e.out))

	if *name == "" {
		// The human-facing form: everything, one result line per workload
		// carrying both metric blocks.
		for _, w := range workloads {
			res, err := runWorkload(ctx, e, w, true)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			if err := printReport(w, res, true, true); err != nil {
				return err
			}
		}
		return nil
	}
	w := workloadByName(*name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	res, err := runWorkload(ctx, e, w, *trace == 1)
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	return printReport(w, res, *trace != 1, *trace == 1)
}

// result is one workload run, both metric blocks.
type result struct {
	correct   bool
	attempted int
	failed    int
	endToEnd  map[string]float64
	layers    map[string]float64
}

// runWorkload sets the workload up (several times, for setup_s), measures
// it untraced and, when traced is set, runs the traced pass.
func runWorkload(ctx context.Context, e *env, w *workload, traced bool) (*result, error) {
	// Set-up is timed in reference time like everything else: each repeat
	// sits between two runs of the compute kernel (a link is a batch job).
	var in *inputs
	setups := make([]float64, setupRepeats)
	rawSetups := make([]float64, setupRepeats)
	before, err := e.cal.speed(kernelCompute, sliceCalib)
	if err != nil {
		return nil, err
	}
	for i := range setups {
		start := time.Now()
		if in, err = setUp(ctx, e, w); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rawSetups[i] = time.Since(start).Seconds()
		after, err := e.cal.speed(kernelCompute, sliceCalib)
		if err != nil {
			return nil, err
		}
		setups[i] = rawSetups[i] * (before + after) / 2
		before = after
	}
	e.logf("%s: set-up took %.3fs wall", w.Name, rawSetups)

	o, err := w.measure(ctx, e, w, in)
	if err != nil {
		return nil, err
	}
	for _, err := range o.load.errs {
		e.logf("%s: failed op: %v", w.Name, err)
	}
	for _, err := range o.checkErrs {
		e.logf("%s: INCORRECT: %v", w.Name, err)
	}
	for _, name := range o.missing {
		e.logf("%s: series %s is no longer exported; its layer metric reads 0", w.Name, name)
	}
	if o.load.ops == 0 {
		return nil, fmt.Errorf("no operation completed in the %v window", e.window)
	}

	lat := o.load.latencies
	tail := supportedTail(len(lat), w.tail)
	e.logf("%s: %d ops in %d operations, %d latency samples, tail p%g, %d outputs checked",
		w.Name, o.load.ops, o.load.attempted, len(lat), tail, o.checked)
	e.logf("%s: host speed per slice %.2f of nominal; wall-clock view: %.1f ops/s, %.4f CPU ms/op",
		w.Name, o.load.speeds, o.load.rawRate, 1000*o.load.rawCPUSec/float64(o.load.ops))
	res := &result{
		correct:   len(o.checkErrs) == 0,
		attempted: o.load.attempted,
		failed:    min(o.load.failed+len(o.checkErrs), o.load.attempted),
		endToEnd: map[string]float64{
			"throughput_ops_s": o.load.rate,
			"latency_p50_ms":   percentile(lat, 50),
			"latency_tail_ms":  percentile(lat, tail),
			"cpu_ms_per_op":    1000 * o.load.cpuSec / float64(o.load.ops),
			"setup_s":          median(setups),
		},
		layers: o.layers,
	}
	res.layers["e2e.fail_share"] = float64(res.failed) / float64(res.attempted)

	if traced {
		rec := newRecorder()
		if err := w.traced(ctx, e, w, in, rec, res.layers); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		path := filepath.Join(e.out, "trace-"+w.Name+".json")
		if err := writeChromeTrace(path, rec.spans); err != nil {
			return nil, err
		}
		e.logf("%s: %d spans written to %s", w.Name, len(rec.spans), path)
	}
	return res, nil
}

// printReport writes the result line: one JSON object, last on stdout.
func printReport(w *workload, res *result, withEndToEnd, withLayers bool) error {
	rep := report{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	if withEndToEnd {
		fill(endToEnd, res.endToEnd, rep.Metrics)
	}
	if withLayers {
		fill(perLayer, res.layers, rep.Metrics)
	}
	if withEndToEnd && withLayers {
		// Only the all-workloads form prints several lines; name each.
		fmt.Fprintf(os.Stderr, "bench: result of %s:\n", w.Name)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(raw))
	return err
}

// cmdRepeat runs K full untraced sets and reports, per workload and
// end-to-end metric, the spread between the sets against the metric's
// bound. A spread past its bound (or any failed op) exits non-zero: a
// gated number must repeat before it can gate anything.
func cmdRepeat(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bench repeat", flag.ContinueOnError)
	sets := fs.Int("sets", 2, "number of full sets to run")
	seed := fs.Int64("seed", 1, "seed of the first set; set i uses seed+i")
	seconds := fs.Int("seconds", defaultSeconds, "length of each measured window")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sets < 2 {
		return errors.New("-sets must be at least 2")
	}
	values := make(map[string][]float64) // "workload metric" → one value per set
	anyFailed := false
	for s := range *sets {
		e, cleanup, err := newEnv(*seed+int64(s), *seconds)
		if err != nil {
			return err
		}
		for _, w := range workloads {
			res, err := runWorkload(ctx, e, w, false)
			if err != nil {
				cleanup()
				return fmt.Errorf("set %d %s: %w", s, w.Name, err)
			}
			anyFailed = anyFailed || res.failed > 0 || !res.correct
			for _, d := range endToEnd {
				key := w.Name + " " + d.Name
				values[key] = append(values[key], res.endToEnd[d.Name])
			}
		}
		cleanup()
	}

	breaches := 0
	fmt.Printf("%-14s %-18s %12s %12s %9s %7s\n", "workload", "metric", "min", "max", "spread", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			vs := append([]float64(nil), values[w.Name+" "+d.Name]...)
			sort.Float64s(vs)
			spread := ratio(vs[len(vs)-1]-vs[0], median(vs))
			mark := ""
			// setup_s is gated on its median only, as the driver does.
			if spread > d.Bound && d.Name != "setup_s" {
				mark = "  BREACH"
				breaches++
			}
			fmt.Printf("%-14s %-18s %12.4f %12.4f %8.1f%% %6.0f%%%s\n", w.Name, d.Name, vs[0], vs[len(vs)-1], 100*spread, 100*d.Bound, mark)
		}
	}
	switch {
	case anyFailed:
		return errors.New("repeat: at least one set had failed or incorrect operations")
	case breaches > 0:
		return fmt.Errorf("repeat: %d metric(s) spread past their bound", breaches)
	}
	return nil
}
