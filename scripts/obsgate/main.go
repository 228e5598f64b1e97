// Command obsgate measures the solver-side cost of distributed tracing
// and enforces the observability performance contract: with tracing
// enabled, fleet batch solves must stay within -max-pct percent of the
// untraced wall time, and the solver outputs must be byte-identical.
//
// Usage:
//
//	obsgate [-instances 256] [-reps 6] [-plan auto] [-max-pct 3]
//
// Process-level A/B benchmarking (run the binary twice, once with
// -trace-out) is hopeless on shared hardware: run-to-run load swings
// of ±40% dwarf the real instrumentation cost. obsgate instead alternates
// traced and untraced solves of the same batch inside one process in ABBA
// order and gates on PROCESS CPU TIME (getrusage user+sys), not wall
// time: instrumentation overhead is extra CPU work, and CPU time is
// blind to the CPU steal and scheduler churn that swing adjacent wall
// timings of a parallel batch by 2x on a contended box. The median of
// per-pair traced/untraced CPU ratios then votes out the residual noise
// (GC timing, futex spins).
//
// scripts/ci.sh runs this as the obs tracing-overhead gate.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"tradefl/internal/fleet"
	"tradefl/internal/game"
	"tradefl/internal/obs"
)

// corpusSizes mirrors the mixed organization-count cycle of
// BenchmarkFleetSolve and `tradefl-sim -fleet`, spanning both sides of the
// planner's solver crossovers.
var corpusSizes = []int{4, 6, 8, 10, 12, 16}

// cpuTime returns the process's cumulative user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "obsgate:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("obsgate", flag.ContinueOnError)
	instances := fs.Int("instances", 128, "batch size per rep")
	workers := fs.Int("workers", -1, "fleet workers per rep (-1 = serial: CPU time is then deterministic work, not scheduler-dependent spin)")
	reps := fs.Int("reps", 9, "timed traced/untraced pairs (plus one warmup rep)")
	planName := fs.String("plan", "auto", "fleet solver plan: auto|pruned|traversal|dbr")
	maxPct := fs.Float64("max-pct", 3, "maximum tolerated traced-vs-untraced slowdown, percent (median of per-pair ratios)")
	seed := fs.Int64("seed", 7, "corpus seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	plan, err := fleet.ParsePlan(*planName)
	if err != nil {
		return err
	}
	cfgs := make([]*game.Config, *instances)
	for i := range cfgs {
		cfg, err := game.DefaultConfig(game.GenOptions{
			N:         corpusSizes[i%len(corpusSizes)],
			Seed:      *seed + int64(i),
			CPUSteps:  3,
			NoOrgName: true,
		})
		if err != nil {
			return fmt.Errorf("instance %d: %w", i, err)
		}
		cfgs[i] = cfg
	}

	// GC pauses landing in one member of a pair are the dominant residual
	// noise once CPU time replaces wall time: collect eagerly between
	// members and keep the collector off while one runs. The allocation
	// work tracing adds still counts (mallocgc runs either way); only the
	// randomly-timed collection cost is neutralized.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	solve := func(traced bool) ([]fleet.Result, time.Duration) {
		obs.EnableTracing(traced)
		defer obs.EnableTracing(false)
		eng := fleet.New(fleet.Options{Plan: plan, Workers: *workers})
		runtime.GC()
		c0 := cpuTime()
		res := eng.Solve(ctx, cfgs)
		return res, cpuTime() - c0
	}

	// Warmup rep (untimed): page in code and data, settle the scheduler.
	ref, _ := solve(false)
	for i, r := range ref {
		if r.Err != nil {
			return fmt.Errorf("instance %d failed: %w", i, r.Err)
		}
	}

	check := func(rep int, traced bool, res []fleet.Result) error {
		// Byte-identity: tracing must not perturb any solver output.
		for i := range res {
			if res[i].Err != nil {
				return fmt.Errorf("rep %d traced=%v: instance %d failed: %w", rep, traced, i, res[i].Err)
			}
			if res[i].Potential != ref[i].Potential || res[i].Plan != ref[i].Plan ||
				len(res[i].Profile) != len(ref[i].Profile) {
				return fmt.Errorf("rep %d traced=%v: instance %d output differs from reference", rep, traced, i)
			}
			for j := range res[i].Profile {
				if res[i].Profile[j] != ref[i].Profile[j] {
					return fmt.Errorf("rep %d traced=%v: instance %d org %d strategy differs", rep, traced, i, j)
				}
			}
		}
		return nil
	}

	ratios := make([]float64, 0, *reps)
	for rep := 0; rep < *reps; rep++ {
		// ABBA: alternate which mode runs first so the systematic
		// second-run penalty hits both modes equally.
		order := []bool{false, true}
		if rep%2 == 1 {
			order = []bool{true, false}
		}
		var offDt, onDt time.Duration
		for _, traced := range order {
			res, dt := solve(traced)
			if err := check(rep, traced, res); err != nil {
				return err
			}
			if traced {
				onDt = dt
			} else {
				offDt = dt
			}
		}
		ratios = append(ratios, onDt.Seconds()/offDt.Seconds())
	}
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2]
	if len(ratios)%2 == 0 {
		median = (ratios[len(ratios)/2-1] + ratios[len(ratios)/2]) / 2
	}

	pct := (median - 1) * 100
	fmt.Printf("obsgate: plan=%s instances=%d pairs=%d: traced/untraced CPU ratios min %.3f median %.3f max %.3f (%+.1f%%, cap %.1f%%)\n",
		*planName, *instances, *reps, ratios[0], median, ratios[len(ratios)-1], pct, *maxPct)
	if pct > *maxPct {
		return fmt.Errorf("tracing overhead %+.1f%% exceeds %.1f%%", pct, *maxPct)
	}
	fmt.Println("obsgate: outputs byte-identical tracing on/off; overhead within budget")
	return nil
}
