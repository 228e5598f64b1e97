// Command abgate holds two performance contracts of the fleet solve path,
// each as an in-process interleaved A/B over the BenchmarkFleetSolve
// corpus:
//
//   - tracing: traced solves stay within 3% of untraced CPU time, and
//     their outputs are byte-identical to the untraced ones (DESIGN.md §8);
//   - regret: plan=auto stays within 20% of plan=dbr's CPU time, each
//     plan's outputs equal to its own reference (DESIGN.md §12).
//
// Usage:
//
//	go run ./scripts/abgate
//
// Process-level A/B benchmarking (run a binary twice) is hopeless on
// shared hardware: run-to-run load swings of ±40% dwarf the costs being
// priced. abgate instead alternates the two sides of a comparison inside
// one process in ABBA order, solving serially and timing PROCESS CPU TIME
// (getrusage user+sys), not wall time, which scheduler churn on a
// contended box swings far more. The median of per-pair B/A CPU ratios
// then votes out the residual noise.
//
// plan=pruned is not a side of the regret comparison: on this corpus it
// is 20× slower than plan=auto (294–341 ms against 13–16 ms per
// BenchmarkFleetSolve batch), so it cannot be the best fixed plan.
//
// scripts/ci.sh runs this as its one performance gate.
package main

import (
	"context"
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

const (
	instances = 128 // batch size per solve
	seed      = 7   // corpus seed
)

// corpusSizes mirrors the mixed organization-count cycle of
// BenchmarkFleetSolve, spanning both sides of the planner's crossover.
var corpusSizes = []int{4, 6, 8, 10, 12, 16}

// side is one arm of a comparison.
type side struct {
	plan   fleet.Plan
	traced bool
}

func (s side) String() string {
	if s.traced {
		return fmt.Sprintf("plan=%s traced", s.plan)
	}
	return "plan=" + s.plan.String()
}

// comparisons gate the median per-pair CPU ratio of b over a at maxPct.
// One pair is two ~2 ms batches; 61 tracing pairs narrow the median's
// run-to-run spread from about ±4.5 points at 15 pairs to about ±2. The
// regret median reads −8% to −14% on a shared 2-vCPU VM at 15, 31 or 61
// pairs alike, so 31 keep it well inside its cap.
var comparisons = []struct {
	name   string
	a, b   side
	pairs  int
	maxPct float64
}{
	{"tracing", side{plan: fleet.PlanAuto}, side{plan: fleet.PlanAuto, traced: true}, 61, 3},
	{"regret", side{plan: fleet.PlanDBR}, side{plan: fleet.PlanAuto}, 31, 20},
}

// cpuTime returns the process's cumulative user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "abgate:", err)
		os.Exit(1)
	}
}

func run() error {
	cfgs := make([]*game.Config, instances)
	for i := range cfgs {
		cfg, err := game.DefaultConfig(game.GenOptions{
			N:         corpusSizes[i%len(corpusSizes)],
			Seed:      seed + int64(i),
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
	// work a side adds still counts (mallocgc runs either way); only the
	// randomly-timed collection cost is neutralized.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	solve := func(s side) ([]fleet.Result, time.Duration) {
		obs.EnableTracing(s.traced)
		defer obs.EnableTracing(false)
		eng := fleet.New(fleet.Options{Plan: s.plan, Workers: -1}) // serial: CPU time is work, not spin
		runtime.GC()
		c0 := cpuTime()
		res := eng.Solve(ctx, cfgs)
		return res, cpuTime() - c0
	}

	// One untimed untraced solve per plan pages in code and data and is
	// that plan's reference: every later solve of the plan, traced or
	// not, must reproduce it.
	refs := map[fleet.Plan][]fleet.Result{}
	for _, c := range comparisons {
		for _, s := range []side{c.a, c.b} {
			if refs[s.plan] != nil {
				continue
			}
			refs[s.plan], _ = solve(side{plan: s.plan})
			for i, r := range refs[s.plan] {
				if r.Err != nil {
					return fmt.Errorf("plan=%s: instance %d failed: %w", s.plan, i, r.Err)
				}
			}
		}
	}
	check := func(s side, res []fleet.Result) error {
		ref := refs[s.plan]
		for i := range res {
			if res[i].Err != nil {
				return fmt.Errorf("%s: instance %d failed: %w", s, i, res[i].Err)
			}
			if res[i].Potential != ref[i].Potential || res[i].Plan != ref[i].Plan ||
				len(res[i].Profile) != len(ref[i].Profile) {
				return fmt.Errorf("%s: instance %d output differs from reference", s, i)
			}
			for j := range res[i].Profile {
				if res[i].Profile[j] != ref[i].Profile[j] {
					return fmt.Errorf("%s: instance %d org %d strategy differs", s, i, j)
				}
			}
		}
		return nil
	}

	var failed []string
	for _, c := range comparisons {
		ratios := make([]float64, 0, c.pairs)
		for pair := 0; pair < c.pairs; pair++ {
			// ABBA: alternate which side runs first so the systematic
			// second-run penalty hits both sides equally.
			order := []side{c.a, c.b}
			if pair%2 == 1 {
				order = []side{c.b, c.a}
			}
			var dt [2]time.Duration
			for _, s := range order {
				res, d := solve(s)
				if err := check(s, res); err != nil {
					return err
				}
				if s == c.a {
					dt[0] = d
				} else {
					dt[1] = d
				}
			}
			ratios = append(ratios, dt[1].Seconds()/dt[0].Seconds())
		}
		sort.Float64s(ratios)
		pct := (ratios[len(ratios)/2] - 1) * 100 // pairs are odd: the middle ratio
		// The line states the verdict the comparison reached. An over-cap
		// median is printed unrounded: rounded to one decimal, +3.04 would
		// read as the cap itself.
		verdict, shown := "within", fmt.Sprintf("%+.1f%%", pct)
		if pct > c.maxPct {
			verdict, shown = "over", fmt.Sprintf("%+g%%", pct)
			failed = append(failed, fmt.Sprintf("%s %s exceeds %.0f%%", c.name, shown, c.maxPct))
		}
		fmt.Printf("abgate: %s: %v over %v, %d instances, %d pairs: CPU ratios min %.3f median %.3f max %.3f (%s, %s cap %.0f%%)\n",
			c.name, c.b, c.a, instances, c.pairs, ratios[0], ratios[len(ratios)/2], ratios[len(ratios)-1], shown, verdict, c.maxPct)
	}
	if failed != nil {
		return fmt.Errorf("%v", failed)
	}
	fmt.Println("abgate: outputs match their references; every median within its cap")
	return nil
}
