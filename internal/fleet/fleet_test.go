package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"tradefl/internal/dbr"
	"tradefl/internal/game"
	"tradefl/internal/gbd"
	"tradefl/internal/obs"
)

func fleetConfig(t testing.TB, seed int64, n int) *game.Config {
	t.Helper()
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: seed, N: n, CPUSteps: 3, NoOrgName: true})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// mixedCorpus builds a small batch spanning the planner's crossover region.
func mixedCorpus(t testing.TB, copies int) []*game.Config {
	t.Helper()
	sizes := []int{4, 6, 8, 10}
	var cfgs []*game.Config
	for c := 0; c < copies; c++ {
		for i, n := range sizes {
			cfgs = append(cfgs, fleetConfig(t, int64(10*c+i+1), n))
		}
	}
	return cfgs
}

// TestBatchMatchesOneAtATime is the core determinism contract: a batched
// solve must be byte-identical to solving each instance alone through a
// fresh engine, and to calling the underlying solver directly with the
// plan the engine chose.
func TestBatchMatchesOneAtATime(t *testing.T) {
	cfgs := mixedCorpus(t, 2)
	eng := New(Options{Workers: 4})
	batch := eng.Solve(context.Background(), cfgs)
	for i, r := range batch {
		if r.Err != nil {
			t.Fatalf("instance %d: %v", i, r.Err)
		}
		lone := New(Options{Workers: 1}).SolveOne(cfgs[i])
		if lone.Err != nil {
			t.Fatalf("instance %d lone: %v", i, lone.Err)
		}
		if lone.Plan != r.Plan {
			t.Fatalf("instance %d: batch plan %s, lone plan %s", i, r.Plan, lone.Plan)
		}
		if !reflect.DeepEqual(r.Profile, lone.Profile) {
			t.Fatalf("instance %d: batch profile differs from one-at-a-time", i)
		}
		// Direct solver, same plan.
		var direct game.Profile
		switch r.Plan {
		case PlanDBR:
			dres, err := dbr.Solve(cfgs[i], nil, dbr.Options{})
			if err != nil {
				t.Fatal(err)
			}
			direct = dres.Profile
		default:
			gres, err := gbd.Solve(cfgs[i], gbdOpts(r.Plan))
			if err != nil {
				t.Fatal(err)
			}
			direct = gres.Profile
		}
		if !reflect.DeepEqual(r.Profile, direct) {
			t.Fatalf("instance %d (plan %s): batch profile differs from direct solver", i, r.Plan)
		}
	}
}

// TestLoneSolvesDoNotFanOut: a CGBD solve runs on its caller's goroutine.
// Neither a direct gbd.Solve nor a lone fleet solve of an N = 8, m = 4 game
// (Π mᵢ = 65,536) on a 4-worker engine may dispatch a pool fan-out.
func TestLoneSolvesDoNotFanOut(t *testing.T) {
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: 1, N: 8, CPUSteps: 4, NoOrgName: true})
	if err != nil {
		t.Fatal(err)
	}
	fanouts := func() float64 {
		s, ok := obs.Find(obs.Default.Snapshot(), "tradefl_pool_fanouts_total")
		if !ok {
			t.Fatal("tradefl_pool_fanouts_total is not registered")
		}
		return s.Value
	}
	before := fanouts()
	for _, master := range []gbd.MasterSolver{gbd.MasterPruned, gbd.MasterTraversal} {
		if _, err := gbd.Solve(cfg, gbd.Options{Master: master}); err != nil {
			t.Fatal(err)
		}
	}
	if r := New(Options{Workers: 4, Plan: PlanPruned}).SolveOne(cfg); r.Err != nil {
		t.Fatal(r.Err)
	}
	if d := fanouts() - before; d != 0 {
		t.Fatalf("%v pool fan-outs during three lone CGBD solves, want 0", d)
	}
}

// TestFixedPlansMatchDirect checks every forced plan against the direct
// solver call it is documented to be equivalent to.
func TestFixedPlansMatchDirect(t *testing.T) {
	cfgs := []*game.Config{fleetConfig(t, 3, 4), fleetConfig(t, 5, 6)}
	for _, plan := range []Plan{PlanDBR, PlanPruned, PlanTraversal} {
		eng := New(Options{Plan: plan, Workers: 2})
		res := eng.Solve(context.Background(), cfgs)
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("%s instance %d: %v", plan, i, r.Err)
			}
			if r.Plan != plan {
				t.Fatalf("%s instance %d: solved with %s", plan, i, r.Plan)
			}
			var direct game.Profile
			if plan == PlanDBR {
				dres, err := dbr.Solve(cfgs[i], nil, dbr.Options{})
				if err != nil {
					t.Fatal(err)
				}
				direct = dres.Profile
			} else {
				gres, err := gbd.Solve(cfgs[i], gbdOpts(plan))
				if err != nil {
					t.Fatal(err)
				}
				direct = gres.Profile
			}
			if !reflect.DeepEqual(r.Profile, direct) {
				t.Fatalf("%s instance %d: profile differs from direct solver", plan, i)
			}
		}
	}
}

// TestAutoSolvesPersonalizedGames: plan=auto must solve a small game with
// the personalization extension — routed to DBR, equal to dbr.Solve —
// where the size rule alone would hand it to CGBD, which rejects it.
// Forced CGBD plans keep returning the solver's error.
func TestAutoSolvesPersonalizedGames(t *testing.T) {
	cfg, err := game.DefaultConfig(game.GenOptions{N: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Personal = game.Personalization{Alpha: 0.3, LocalBoost: 1.5}
	r := New(Options{}).SolveOne(cfg)
	if r.Err != nil {
		t.Fatalf("plan=auto (resolved to %s): %v", r.Plan, r.Err)
	}
	want, err := dbr.Solve(cfg, nil, dbr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Plan != PlanDBR || !reflect.DeepEqual(r.Profile, want.Profile) {
		t.Fatalf("plan=auto solved with %s, profile %+v; want dbr.Solve's %+v", r.Plan, r.Profile, want.Profile)
	}
	for _, plan := range []Plan{PlanPruned, PlanTraversal} {
		if r := New(Options{Plan: plan}).SolveOne(cfg); r.Err == nil || r.Plan != plan {
			t.Errorf("forced %s on a personalized game: plan %s, err %v; want the solver's rejection", plan, r.Plan, r.Err)
		}
	}
}

// TestAutoEqualsBothMasters: auto no longer resolves to the traversal
// master on tiny grids. That changes no output: on N ∈ {2,3,4}, where the
// traversal form used to win, auto, forced pruned and forced traversal
// return the same profile and potential.
func TestAutoEqualsBothMasters(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		for seed := int64(1); seed <= 4; seed++ {
			cfg := fleetConfig(t, seed, n)
			auto := New(Options{}).SolveOne(cfg)
			if auto.Err != nil {
				t.Fatalf("N=%d seed=%d auto: %v", n, seed, auto.Err)
			}
			if auto.Plan != PlanPruned {
				t.Fatalf("N=%d seed=%d: auto resolved to %s, want pruned", n, seed, auto.Plan)
			}
			for _, plan := range []Plan{PlanPruned, PlanTraversal} {
				forced := New(Options{Plan: plan}).SolveOne(cfg)
				if forced.Err != nil {
					t.Fatalf("N=%d seed=%d %s: %v", n, seed, plan, forced.Err)
				}
				if !reflect.DeepEqual(forced.Profile, auto.Profile) || forced.Potential != auto.Potential {
					t.Errorf("N=%d seed=%d: forced %s (%+v, %v) differs from auto (%+v, %v)",
						n, seed, plan, forced.Profile, forced.Potential, auto.Profile, auto.Potential)
				}
			}
		}
	}
}

// TestResultCarriesItsEvaluation: whatever the plan, on the engine's first
// pass over a batch or a later one over the same pointers, a result's
// payoffs, welfare and potential are cfg.Payoffs, cfg.SocialWelfare and
// cfg.Potential of its profile bit for bit — the solve's one evaluation
// stands in for every later one — and a failed instance carries none.
func TestResultCarriesItsEvaluation(t *testing.T) {
	check := func(what string, cfg *game.Config, r Result) {
		t.Helper()
		if r.Err != nil {
			t.Fatalf("%s: %v", what, r.Err)
		}
		if !reflect.DeepEqual(r.Payoffs, cfg.Payoffs(r.Profile)) {
			t.Errorf("%s: payoffs %v, cfg.Payoffs %v", what, r.Payoffs, cfg.Payoffs(r.Profile))
		}
		if want := cfg.SocialWelfare(r.Profile); math.Float64bits(r.Welfare) != math.Float64bits(want) {
			t.Errorf("%s: welfare %v, cfg.SocialWelfare %v", what, r.Welfare, want)
		}
		if want := cfg.Potential(r.Profile); math.Float64bits(r.Potential) != math.Float64bits(want) {
			t.Errorf("%s: potential %v, cfg.Potential %v", what, r.Potential, want)
		}
	}
	for _, plan := range []Plan{PlanPruned, PlanTraversal, PlanDBR, PlanAuto} {
		eng := New(Options{Plan: plan, Workers: 2})
		cfgs := mixedCorpus(t, 1)
		if plan == PlanDBR || plan == PlanAuto { // a size only DBR answers in test time
			cfgs = append(cfgs, fleetConfig(t, 9, 24))
		}
		cfgs = append(cfgs, &game.Config{})
		bad := len(cfgs) - 1
		first := eng.Solve(context.Background(), cfgs)
		second := eng.Solve(context.Background(), cfgs)
		for i, cfg := range cfgs {
			if i == bad {
				for _, r := range []Result{first[i], second[i]} {
					if r.Err == nil || r.Payoffs != nil || r.Welfare != 0 || r.Potential != 0 {
						t.Errorf("plan %s: failed instance carries an evaluation: %+v", plan, r)
					}
				}
				continue
			}
			check(fmt.Sprintf("plan %s instance %d first pass", plan, i), cfg, first[i])
			check(fmt.Sprintf("plan %s instance %d second pass", plan, i), cfg, second[i])
		}
	}
}

// TestBatchDuplicatePointers: the same instance appearing many times in
// one concurrent batch must produce identical results at every position
// (pooled solver scratch never shared — run under -race in CI).
func TestBatchDuplicatePointers(t *testing.T) {
	cfg := fleetConfig(t, 11, 6)
	cfgs := make([]*game.Config, 16)
	for i := range cfgs {
		cfgs[i] = cfg
	}
	res := New(Options{Workers: 8}).Solve(context.Background(), cfgs)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("instance %d: %v", i, r.Err)
		}
		if r.Plan != res[0].Plan {
			t.Fatalf("instance %d: plan %s differs from position 0 (%s)", i, r.Plan, res[0].Plan)
		}
		if !reflect.DeepEqual(r.Profile, res[0].Profile) {
			t.Fatalf("instance %d: duplicate instance produced a different profile", i)
		}
	}
}

// TestContextCancel: a cancelled batch marks unscheduled instances with
// the context error instead of returning zero-valued results.
func TestContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := New(Options{Workers: 2}).Solve(ctx, mixedCorpus(t, 1))
	for i, r := range res {
		if r.Err == nil {
			t.Fatalf("instance %d: no error after pre-cancelled batch", i)
		}
	}
}

// TestPerInstanceError: one invalid instance fails alone; the rest of the
// batch still solves.
func TestPerInstanceError(t *testing.T) {
	cfgs := []*game.Config{fleetConfig(t, 1, 4), {}, fleetConfig(t, 2, 6)}
	res := New(Options{Workers: 1}).Solve(context.Background(), cfgs)
	if res[1].Err == nil {
		t.Fatal("empty config solved without error")
	}
	for _, i := range []int{0, 2} {
		if res[i].Err != nil {
			t.Fatalf("valid instance %d poisoned by the failing one: %v", i, res[i].Err)
		}
		if res[i].Profile == nil {
			t.Fatalf("valid instance %d has no profile", i)
		}
	}
}

// TestAudit: a clean batch passes the full audit; a tampered result is
// caught.
func TestAudit(t *testing.T) {
	cfgs := mixedCorpus(t, 1)
	eng := New(Options{Workers: 2})
	res := eng.Solve(context.Background(), cfgs)
	audited, err := eng.Audit(cfgs, res, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if audited != len(cfgs) {
		t.Fatalf("audited %d of %d at fraction 1", audited, len(cfgs))
	}
	// Tamper with one output: the audit must flag it.
	tampered := append(game.Profile(nil), res[0].Profile...)
	tampered[0].D *= 1.0000001
	res[0].Profile = tampered
	if _, err := eng.Audit(cfgs, res, 1, 42); !errors.Is(err, ErrAuditMismatch) {
		t.Fatalf("tampered batch passed the audit: %v", err)
	}
}

// TestAuditSampling: small fractions audit at least one instance — also
// when the batch's last instance failed and cannot be the forced sample —
// and stay deterministic in the seed.
func TestAuditSampling(t *testing.T) {
	cfgs := mixedCorpus(t, 1)
	eng := New(Options{Workers: 1})
	res := eng.Solve(context.Background(), cfgs)
	// No draw falls below 1e-9, so the one sample is the forced one.
	failedLast := append(cfgs[:len(cfgs):len(cfgs)], &game.Config{})
	if n, err := eng.Audit(failedLast, eng.Solve(context.Background(), failedLast), 1e-9, 7); n != 1 || err != nil {
		t.Fatalf("failed last instance: audited %d, err %v; want the last solved instance sampled", n, err)
	}
	a1, err := eng.Audit(cfgs, res, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a1 < 1 {
		t.Fatal("fraction 0.25 audited nothing")
	}
	a2, err := eng.Audit(cfgs, res, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatalf("same seed audited %d then %d instances", a1, a2)
	}
	if n, err := eng.Audit(cfgs, res, 0, 7); n != 0 || err != nil {
		t.Fatalf("fraction 0 must audit nothing, got %d, %v", n, err)
	}
}
