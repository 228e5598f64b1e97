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

// TestDecideDefaultProfileFallback: whatever the statistics — zero,
// NaN or infinite grids included — auto resolves to a concrete plan and
// never to the traversal master.
func TestDecideDefaultProfileFallback(t *testing.T) {
	var pl Planner
	for _, st := range []Stats{
		{},
		{N: 2, Grid: 9},
		{N: 6, Grid: math.NaN()},
		{N: 6, Grid: math.Inf(-1)},
		{N: 40, Grid: math.Inf(1)},
		{N: 40, Grid: math.NaN(), Personalized: true},
	} {
		if dec := pl.Decide(st, 0); dec.Plan != PlanPruned && dec.Plan != PlanDBR {
			t.Errorf("auto resolved to %s on %+v", dec.Plan, st)
		}
	}
}

// TestDecisionTable pins the measured crossover (DESIGN.md §12,
// BenchmarkPlanCrossover): auto sends N ≤ 6 to the pruned CGBD master and
// every larger game to DBR, whatever the grid width.
func TestDecisionTable(t *testing.T) {
	var pl Planner
	for _, m := range []int{2, 3, 5} {
		for n := 2; n <= 40; n++ {
			cfg, err := game.DefaultConfig(game.GenOptions{Seed: 1, N: n, CPUSteps: m, NoOrgName: true})
			if err != nil {
				t.Fatal(err)
			}
			want := PlanDBR
			if n <= 6 {
				want = PlanPruned
			}
			if dec := pl.Decide(StatsOf(cfg, 0), 0); dec.Plan != want {
				t.Errorf("N=%d m=%d: auto picked %s, want %s", n, m, dec.Plan, want)
			}
		}
	}
}

// TestDecidePersonalizedGoesToDBR: CGBD rejects the personalization
// extension, so auto must route an α > 0 game to DBR at any size; a forced
// CGBD plan stays forced.
func TestDecidePersonalizedGoesToDBR(t *testing.T) {
	var pl Planner
	for n, base := range map[int]Plan{2: PlanPruned, 6: PlanPruned, 11: PlanDBR} {
		cfg := fleetConfig(t, 1, n)
		if dec := pl.Decide(StatsOf(cfg, 0), 0); dec.Plan != base {
			t.Fatalf("N=%d base game: auto picked %s, want %s", n, dec.Plan, base)
		}
		cfg.Personal = game.Personalization{Alpha: 0.3, LocalBoost: 1.5}
		if dec := pl.Decide(StatsOf(cfg, 0), 0); dec.Plan != PlanDBR {
			t.Errorf("N=%d personalized game: auto picked %s, want dbr", n, dec.Plan)
		}
		for _, plan := range []Plan{PlanPruned, PlanTraversal, PlanDBR} {
			forced := Planner{Forced: plan}
			if dec := forced.Decide(StatsOf(cfg, 0), 0); dec.Plan != plan {
				t.Errorf("N=%d personalized game: forced %s resolved to %s", n, plan, dec.Plan)
			}
		}
	}
}

// TestPlannerRegret: on the mixed corpus, auto planning is never slower
// than the best fixed plan by more than the 20% the fleet gate allows
// (DESIGN.md §12), plus an absolute slack so scheduler noise on loaded CI
// machines cannot flake it.
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
	if auto > fixedBest+fixedBest/5+slack {
		t.Errorf("auto %v vs best fixed %v: regret above the 1.2× + %v bound", auto, fixedBest, slack)
	}
}
