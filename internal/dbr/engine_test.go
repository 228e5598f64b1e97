package dbr

import (
	"math"
	"testing"

	"tradefl/internal/game"
)

// engineGames yields instances across sizes and both model variants so the
// equivalence tests cover every payoff expression form.
func engineGames(t *testing.T) []*game.Config {
	t.Helper()
	var cfgs []*game.Config
	for _, gen := range []game.GenOptions{
		{Seed: 1},
		{Seed: 7, N: 4},
		{Seed: 11, N: 16, Mu: 0.9},
	} {
		cfg, err := game.DefaultConfig(gen)
		if err != nil {
			t.Fatalf("DefaultConfig(%+v): %v", gen, err)
		}
		cfgs = append(cfgs, cfg)
		pers, err := game.DefaultConfig(gen)
		if err != nil {
			t.Fatalf("DefaultConfig(%+v): %v", gen, err)
		}
		pers.Personal = game.Personalization{Alpha: 0.3, LocalBoost: 1.5}
		cfgs = append(cfgs, pers)
	}
	return cfgs
}

// TestEngineBestResponseMatchesNaive compares the engine scan against the
// from-scratch reference (reference_test.go) on identical profiles:
// strategy, value and the feasibility flag must agree bit-for-bit.
func TestEngineBestResponseMatchesNaive(t *testing.T) {
	for _, cfg := range engineGames(t) {
		p := cfg.MinimalProfile()
		eng := NewEngine(cfg)
		eng.Bind(p)
		for i := 0; i < cfg.N(); i++ {
			ns, nv, nok := bestResponseNaive(cfg, p, i, 1e-7)
			es, ev, eok := eng.BestResponse(i, 1e-7)
			if nok != eok || ns != es || math.Float64bits(nv) != math.Float64bits(ev) {
				t.Fatalf("org %d: engine (%+v, %x, %v) != naive (%+v, %x, %v)",
					i, es, math.Float64bits(ev), eok, ns, math.Float64bits(nv), nok)
			}
		}
	}
}

// TestSolveIncrementalEquivalence is the end-to-end check of the engine:
// Solve must return the profile, payoff traces and potential traces of
// Algorithm 2 run on the from-scratch reference scan, bit for bit.
func TestSolveIncrementalEquivalence(t *testing.T) {
	for _, cfg := range engineGames(t) {
		got, err := Solve(cfg, nil, Options{})
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		sameResult(t, "engine vs reference", got, solveNaive(cfg, Options{}))
	}
}

// sameResult fails the test unless got and want agree on control flow and,
// bit for bit, on the profile and both convergence traces.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Rounds != want.Rounds || got.Converged != want.Converged {
		t.Fatalf("%s: control flow diverged: (%d,%v) vs (%d,%v)", label, got.Rounds, got.Converged, want.Rounds, want.Converged)
	}
	for i := range want.Profile {
		if got.Profile[i] != want.Profile[i] {
			t.Fatalf("%s: profile[%d] diverged: %+v vs %+v", label, i, got.Profile[i], want.Profile[i])
		}
	}
	if len(got.PotentialTrace) != len(want.PotentialTrace) {
		t.Fatalf("%s: potential trace length diverged: %d vs %d", label, len(got.PotentialTrace), len(want.PotentialTrace))
	}
	for k := range want.PotentialTrace {
		if math.Float64bits(got.PotentialTrace[k]) != math.Float64bits(want.PotentialTrace[k]) {
			t.Fatalf("%s: potential trace[%d] diverged: %x vs %x", label, k,
				math.Float64bits(got.PotentialTrace[k]), math.Float64bits(want.PotentialTrace[k]))
		}
		for i := range want.PayoffTrace[k] {
			if math.Float64bits(got.PayoffTrace[k][i]) != math.Float64bits(want.PayoffTrace[k][i]) {
				t.Fatalf("%s: payoff trace[%d][%d] diverged", label, k, i)
			}
		}
	}
}

var engineSink float64

// TestBestResponseZeroAlloc pins the engine's allocation contract: a
// steady-state best-response scan on a bound engine performs zero
// heap allocations. It uses an explicit engine (not the pool) so a
// concurrent GC cannot empty the pool mid-measurement and flake the count.
func TestBestResponseZeroAlloc(t *testing.T) {
	cfg := defaultGame(t, 1)
	p := cfg.MinimalProfile()
	eng := NewEngine(cfg)
	eng.Bind(p)
	// Warm once: the first scan may grow the golden-section bracket scratch.
	if _, _, ok := eng.BestResponse(0, 1e-7); !ok {
		t.Fatal("no feasible best response for org 0")
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < cfg.N(); i++ {
			_, v, _ := eng.BestResponse(i, 1e-7)
			engineSink = v
		}
	})
	if allocs != 0 {
		t.Fatalf("BestResponse allocates %v per sweep, want 0", allocs)
	}
}

// BenchmarkBestResponseAllocs measures the engine's serial scan at the
// default instance size (with -benchmem it documents the zero-alloc steady
// state) beside the from-scratch reference scan it replaced.
func BenchmarkBestResponseAllocs(b *testing.B) {
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: 7, NoOrgName: true})
	if err != nil {
		b.Fatal(err)
	}
	p := cfg.MinimalProfile()
	b.Run("engine", func(b *testing.B) {
		b.ReportAllocs()
		eng := NewEngine(cfg)
		eng.Bind(p)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, ok := eng.BestResponse(i%cfg.N(), 1e-7); !ok {
				b.Fatal("no feasible response")
			}
		}
	})
	b.Run("reference=from-scratch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, ok := bestResponseNaive(cfg, p, i%cfg.N(), 1e-7); !ok {
				b.Fatal("no feasible response")
			}
		}
	})
}

// TestEngineResetReusesForSameConfig verifies the pool fast path: releasing
// and re-acquiring for the same config skips the evaluator rebuild and the
// engine still answers correctly after rebinding.
func TestEngineResetReusesForSameConfig(t *testing.T) {
	cfg := defaultGame(t, 2)
	p := cfg.MinimalProfile()
	e := acquireEngine(cfg)
	e.Bind(p)
	want := e.Payoff(0)
	releaseEngine(e)
	e2 := acquireEngine(cfg)
	e2.Bind(p)
	if got := e2.Payoff(0); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("pooled engine diverged after reuse: %x vs %x", math.Float64bits(got), math.Float64bits(want))
	}
	releaseEngine(e2)
}
