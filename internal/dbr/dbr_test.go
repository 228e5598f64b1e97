package dbr

import (
	"math"
	"reflect"
	"testing"

	"tradefl/internal/game"
)

func defaultGame(t *testing.T, seed int64) *game.Config {
	t.Helper()
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: seed})
	if err != nil {
		t.Fatalf("DefaultConfig: %v", err)
	}
	return cfg
}

func TestSolveConvergesToNash(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		cfg := defaultGame(t, seed)
		res, err := Solve(cfg, nil, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Converged {
			t.Errorf("seed %d: no convergence in %d rounds", seed, res.Rounds)
		}
		if err := cfg.ValidProfile(res.Profile); err != nil {
			t.Errorf("seed %d: invalid profile: %v", seed, err)
		}
		rep := cfg.CheckNash(res.Profile, 60, 1e-2)
		if !rep.IsNash {
			t.Errorf("seed %d: not Nash: %v", seed, rep)
		}
	}
}

func TestPotentialNondecreasingAcrossSweeps(t *testing.T) {
	// Best-response dynamics in a potential game must never decrease U.
	cfg := defaultGame(t, 11)
	res, err := Solve(cfg, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < len(res.PotentialTrace); k++ {
		if res.PotentialTrace[k] < res.PotentialTrace[k-1]-1e-9 {
			t.Errorf("sweep %d: potential decreased %v -> %v",
				k, res.PotentialTrace[k-1], res.PotentialTrace[k])
		}
	}
}

func TestPayoffTraceShape(t *testing.T) {
	cfg := defaultGame(t, 12)
	res, err := Solve(cfg, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PayoffTrace) != len(res.PotentialTrace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(res.PayoffTrace), len(res.PotentialTrace))
	}
	for _, row := range res.PayoffTrace {
		if len(row) != cfg.N() {
			t.Fatalf("payoff row has %d entries, want %d", len(row), cfg.N())
		}
	}
}

func TestBestResponseImproves(t *testing.T) {
	cfg := defaultGame(t, 13)
	p := cfg.MinimalProfile()
	eng := NewEngine(cfg)
	eng.Bind(p)
	for i := range cfg.Orgs {
		base := cfg.Payoff(i, p)
		next, val, ok := eng.BestResponse(i, 1e-7)
		if !ok {
			t.Fatalf("org %d: no feasible response", i)
		}
		if val < base-1e-9 {
			t.Errorf("org %d: best response value %v below current %v", i, val, base)
		}
		q := p.Clone()
		q[i] = next
		if got := cfg.Payoff(i, q); math.Abs(got-val) > 1e-6 {
			t.Errorf("org %d: reported value %v != evaluated %v", i, val, got)
		}
	}
}

func TestBestResponseDoesNotMutateProfile(t *testing.T) {
	cfg := defaultGame(t, 13)
	p := cfg.MinimalProfile()
	snapshot := p.Clone()
	eng := NewEngine(cfg)
	eng.Bind(p)
	if _, _, ok := eng.BestResponse(0, 1e-7); !ok {
		t.Fatal("no feasible response")
	}
	for i := range p {
		if p[i] != snapshot[i] {
			t.Fatalf("BestResponse mutated input profile at %d", i)
		}
	}
}

func TestSolveFromCustomStart(t *testing.T) {
	cfg := defaultGame(t, 14)
	// Start everyone at their deadline-feasible maximum on the slowest CPU.
	start := make(game.Profile, cfg.N())
	for i, o := range cfg.Orgs {
		f := o.CPULevels[0]
		_, hi, ok := cfg.FeasibleD(i, f)
		if !ok {
			f = o.CPULevels[len(o.CPULevels)-1]
			_, hi, _ = cfg.FeasibleD(i, f)
		}
		start[i] = game.Strategy{D: hi, F: f}
	}
	res, err := Solve(cfg, start, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("no convergence from custom start")
	}
	// The input start must not be mutated.
	for i := range start {
		if start[i].D != func() float64 {
			f := cfg.Orgs[i].CPULevels[0]
			_, hi, ok := cfg.FeasibleD(i, f)
			if !ok {
				f = cfg.Orgs[i].CPULevels[len(cfg.Orgs[i].CPULevels)-1]
				_, hi, _ = cfg.FeasibleD(i, f)
			}
			return hi
		}() {
			t.Fatal("Solve mutated the start profile")
		}
	}
}

func TestSolveRejectsInvalidInput(t *testing.T) {
	cfg := defaultGame(t, 15)
	cfg.Accuracy = nil
	if _, err := Solve(cfg, nil, Options{}); err == nil {
		t.Error("Solve accepted invalid config")
	}
	cfg = defaultGame(t, 15)
	bad := cfg.MinimalProfile()
	bad[0].D = -1
	if _, err := Solve(cfg, bad, Options{}); err == nil {
		t.Error("Solve accepted invalid start profile")
	}
}

func TestConvergenceWithinPaperIterationScale(t *testing.T) {
	// Fig. 5: payoffs converge within ~25 iterations on the default
	// instance; allow generous slack but catch regressions into hundreds.
	cfg := defaultGame(t, 7)
	res, err := Solve(cfg, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 30 {
		t.Errorf("DBR took %d sweeps, want ≤ 30 (paper: ~25 iterations)", res.Rounds)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := defaultGame(t, 21)
	a, err := Solve(cfg, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(cfg, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Profile {
		if a.Profile[i] != b.Profile[i] {
			t.Fatalf("non-deterministic result at org %d", i)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o, err := Options{}.withDefaults()
	if err != nil || o.MaxRounds <= 0 || o.Tol <= 0 || o.DTol <= 0 {
		t.Errorf("withDefaults left zero values: %+v (err %v)", o, err)
	}
}

// TestOptionsRejected: options under which "the last sweep" or a tolerance
// comparison means nothing are errors from both entry points, and every
// solve that succeeds ran a sweep.
func TestOptionsRejected(t *testing.T) {
	cfg := defaultGame(t, 1)
	names := make([]string, cfg.N())
	for _, tc := range []struct {
		name string
		opts Options
		ok   bool
	}{
		{"zero value", Options{}, true},
		{"one round", Options{MaxRounds: 1}, true},
		{"tiny tolerances", Options{Tol: 5e-324, DTol: 5e-324, MaxRounds: 2}, true},
		{"negative rounds", Options{MaxRounds: -1}, false},
		{"negative Tol", Options{Tol: -1e-9}, false},
		{"NaN Tol", Options{Tol: math.NaN()}, false},
		{"infinite Tol", Options{Tol: math.Inf(1)}, false},
		{"negative DTol", Options{DTol: -1e-7}, false},
		{"NaN DTol", Options{DTol: math.NaN()}, false},
		{"infinite DTol", Options{DTol: math.Inf(1)}, false},
		{"one resend", Options{SuspectAfter: 1}, true},
		{"negative SuspectAfter", Options{SuspectAfter: -1}, false},
		{"most negative SuspectAfter", Options{SuspectAfter: math.MinInt}, false},
	} {
		res, err := Solve(cfg, nil, tc.opts)
		_, nodeErr := NewNode(cfg, 0, nil, names, tc.opts)
		if (err == nil) != tc.ok || (nodeErr == nil) != tc.ok {
			t.Errorf("%s: Solve err %v, NewNode err %v, want ok=%v", tc.name, err, nodeErr, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		if res.Rounds < 1 || len(res.PotentialTrace) != res.Rounds || len(res.PayoffTrace) != res.Rounds {
			t.Errorf("%s: %d rounds, %d potential rows, %d payoff rows", tc.name, res.Rounds, len(res.PotentialTrace), len(res.PayoffTrace))
			continue
		}
		payoffs, potential := res.Final()
		if !reflect.DeepEqual(payoffs, cfg.Payoffs(res.Profile)) || potential != cfg.Potential(res.Profile) {
			t.Errorf("%s: Final() is not the evaluation of the final profile", tc.name)
		}
	}
}
