package fleet

import (
	"context"
	"math"
	"testing"
	"time"

	"tradefl/internal/game"
)

// TestParsePlanRoundTrip: every plan parses back from its String form.
func TestParsePlanRoundTrip(t *testing.T) {
	for _, p := range []Plan{PlanAuto, PlanDBR, PlanPruned, PlanTraversal} {
		got, err := ParsePlan(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePlan(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePlan("greedy"); err == nil {
		t.Error("accepted unknown plan name")
	}
}

// TestDecideSerialTinyInstances: instances with N ≤ 4 always take the
// exact serial path (Workers 1), even with idle pool workers and a large
// grid — the fan-out overhead exceeds the whole solve.
func TestDecideSerialTinyInstances(t *testing.T) {
	var pl Planner
	for n := 1; n <= 4; n++ {
		st := Stats{N: n, MaxLevels: 64, MeanLevels: 64, Grid: 1 << 24, Epsilon: 1e-6}
		if dec := pl.Decide(st, 8); dec.Workers != 1 {
			t.Errorf("N=%d: Workers = %d, want the serial path", n, dec.Workers)
		}
	}
	// Large instances with idle workers may shard.
	st := Stats{N: 12, MaxLevels: 8, MeanLevels: 8, Grid: math.Pow(8, 12), Epsilon: 1e-6}
	if dec := pl.Decide(st, 3); dec.Workers != 4 {
		t.Errorf("large instance with 3 spare workers: Workers = %d, want 4", dec.Workers)
	}
	// A saturated pool (no spare workers) never shards.
	if dec := pl.Decide(st, 0); dec.Workers != 1 {
		t.Errorf("saturated pool: Workers = %d, want 1", dec.Workers)
	}
}

// TestDecideDeterministicPlan: the chosen plan is a pure function of the
// instance statistics — spare workers may only move the byte-identical
// worker count.
func TestDecideDeterministicPlan(t *testing.T) {
	var pl Planner
	base := Stats{N: 8, MaxLevels: 3, MeanLevels: 3, Grid: 6561, Epsilon: 1e-6}
	ref := pl.Decide(base, 0)
	for _, spare := range []int{0, 1, 4, 16} {
		if dec := pl.Decide(base, spare); dec.Plan != ref.Plan {
			t.Fatalf("plan flipped to %s under spare=%d", dec.Plan, spare)
		}
	}
}

// TestDecideDefaultProfileFallback: the zero-value planner routes the
// measured solver crossover sensibly — small grids to the pruned CGBD
// master, big-N instances to DBR — and auto never resolves to the traversal
// master, whatever the grid.
func TestDecideDefaultProfileFallback(t *testing.T) {
	var pl Planner
	small := pl.Decide(Stats{N: 4, MaxLevels: 3, MeanLevels: 3, Grid: 81, Epsilon: 1e-6}, 0)
	if small.Plan != PlanPruned {
		t.Errorf("N=4 m=3 routed to %s; the pruned master is an order of magnitude cheaper there", small.Plan)
	}
	big := pl.Decide(Stats{N: 16, MaxLevels: 3, MeanLevels: 3, Grid: math.Pow(3, 16), Epsilon: 1e-6}, 0)
	if big.Plan != PlanDBR {
		t.Errorf("N=16 m=3 routed to %s, want dbr (a 3^16 grid is slow for pruned)", big.Plan)
	}
	for _, st := range []Stats{
		{N: 2, MaxLevels: 3, MeanLevels: 3, Grid: 9, Epsilon: 1e-6},
		{N: 3, MaxLevels: 3, MeanLevels: 3, Grid: 27, Epsilon: 1e-6},
		{N: 40, MaxLevels: 10, MeanLevels: 10, Grid: math.Pow(10, 40), Epsilon: 1e-6},
	} {
		if dec := pl.Decide(st, 0); dec.Plan == PlanTraversal {
			t.Errorf("auto resolved to traversal on a %g-point grid", st.Grid)
		}
	}
}

// TestDecisionTable pins the premise BENCHMARK.json states for its two job
// workloads: on generated m=3 games auto sends N ∈ {4,5,6,8,10} to the
// pruned CGBD master and N ∈ {24,32,40} to DBR.
func TestDecisionTable(t *testing.T) {
	var pl Planner
	for n, want := range map[int]Plan{
		4: PlanPruned, 5: PlanPruned, 6: PlanPruned, 8: PlanPruned, 10: PlanPruned,
		24: PlanDBR, 32: PlanDBR, 40: PlanDBR,
	} {
		if dec := pl.Decide(StatsOf(fleetConfig(t, 1, n), 0), 0); dec.Plan != want {
			t.Errorf("N=%d: auto picked %s, want %s", n, dec.Plan, want)
		}
	}
}

// TestDecidePersonalizedGoesToDBR: CGBD rejects the personalization
// extension, so auto must route an α > 0 game to DBR at any size; a forced
// CGBD plan stays forced.
func TestDecidePersonalizedGoesToDBR(t *testing.T) {
	var pl Planner
	for _, n := range []int{2, 6, 11} {
		cfg := fleetConfig(t, 1, n)
		if dec := pl.Decide(StatsOf(cfg, 0), 0); dec.Plan != PlanPruned {
			t.Fatalf("N=%d base game: auto picked %s, want pruned", n, dec.Plan)
		}
		cfg.Personal = game.Personalization{Alpha: 0.3, LocalBoost: 1.5}
		if dec := pl.Decide(StatsOf(cfg, 0), 0); dec.Plan != PlanDBR {
			t.Errorf("N=%d personalized game: auto picked %s, want dbr", n, dec.Plan)
		}
		forced := Planner{Forced: PlanPruned}
		if dec := forced.Decide(StatsOf(cfg, 0), 0); dec.Plan != PlanPruned {
			t.Errorf("N=%d personalized game: forced pruned resolved to %s", n, dec.Plan)
		}
	}
}

// TestPlannerRegret: on the mixed corpus, auto planning is never
// slower than the best fixed plan by more than a bounded factor. The
// acceptance bound is 1.10 on the reference host; the test allows 1.5×
// plus an absolute slack so scheduler noise on loaded CI machines cannot
// flake it — auto picks the per-instance winner, which on this corpus
// beats every fixed plan outright.
func TestPlannerRegret(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock regret measurement")
	}
	cfgs := mixedCorpus(t, 2)
	run := func(plan Plan) time.Duration {
		best := time.Duration(math.MaxInt64)
		for rep := 0; rep < 3; rep++ {
			eng := New(Options{Plan: plan, Workers: 1})
			start := time.Now()
			for _, r := range eng.Solve(context.Background(), cfgs) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
			}
			if dt := time.Since(start); dt < best {
				best = dt
			}
		}
		return best
	}
	auto := run(PlanAuto)
	fixedBest := time.Duration(math.MaxInt64)
	for _, plan := range []Plan{PlanDBR, PlanPruned} {
		if dt := run(plan); dt < fixedBest {
			fixedBest = dt
		}
	}
	const slack = 5 * time.Millisecond
	if auto > fixedBest+fixedBest/2+slack {
		t.Errorf("auto %v vs best fixed %v: regret above the 1.5× + %v bound", auto, fixedBest, slack)
	}
}
