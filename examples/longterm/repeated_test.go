package main

import (
	"math"
	"testing"

	"tradefl/internal/game"
)

func defaultGame(t *testing.T, seed int64) *game.Config {
	t.Helper()
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestAnalyzeBasicShape(t *testing.T) {
	cfg := defaultGame(t, 7)
	a, err := analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.N()
	if len(a.Cooperative) != n || len(a.Punishment) != n ||
		len(a.DefectionGain) != n || len(a.CriticalDelta) != n {
		t.Fatal("analysis vectors have wrong lengths")
	}
	for i := 0; i < n; i++ {
		if a.DefectionGain[i] < 0 {
			t.Errorf("org %d: negative defection gain %v", i, a.DefectionGain[i])
		}
		if a.CriticalDelta[i] < 0 || a.CriticalDelta[i] > 1 {
			t.Errorf("org %d: δ* = %v outside [0,1]", i, a.CriticalDelta[i])
		}
	}
}

// TestContractCollapsesDefectionGain is the headline: the cooperative
// profile is a Nash equilibrium of the stage game, so once the contract
// removes the repudiation option, no one gains from deviating at all —
// cooperation needs no patience (δ* = 0).
func TestContractCollapsesDefectionGain(t *testing.T) {
	cfg := defaultGame(t, 7)
	a, err := analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range a.ContractEnforced.DefectionGain {
		if g > 1e-3 {
			t.Errorf("org %d: contract-enforced defection gain %v, want ≈0 (NE)", i, g)
		}
	}
	if a.ContractEnforced.MaxCriticalDelta > 1e-6 {
		t.Errorf("contract-enforced δ* = %v, want 0", a.ContractEnforced.MaxCriticalDelta)
	}
	// Without the contract, withholding owed transfers is profitable for
	// at least one net payer, so cooperation requires patience.
	if a.MaxCriticalDelta <= 0 {
		t.Errorf("repudiation δ* = %v, want positive", a.MaxCriticalDelta)
	}
}

func TestCooperationSustainable(t *testing.T) {
	cfg := defaultGame(t, 7)
	a, err := analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With the contract, any δ sustains cooperation.
	if _, with := a.cooperationSustainable(0.01); !with {
		t.Error("contract-enforced cooperation should hold at any δ")
	}
	// Without it, a δ below the threshold fails and one above succeeds
	// (when the threshold is interior).
	if a.MaxCriticalDelta > 0 && a.MaxCriticalDelta < 1 {
		if without, _ := a.cooperationSustainable(a.MaxCriticalDelta * 0.5); without {
			t.Error("cooperation reported sustainable below δ*")
		}
		if without, _ := a.cooperationSustainable(math.Min(0.999, a.MaxCriticalDelta*1.01)); !without {
			t.Error("cooperation reported unsustainable above δ*")
		}
	}
}

func TestPathPayoffDefectionTradeoff(t *testing.T) {
	cfg := defaultGame(t, 7)
	a, err := analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Pick the most tempted organization among those grim trigger can
	// deter at all (δ* < 1). Organizations with δ* = 1 prefer the
	// punishment world outright — deterrence needs the contract, which
	// TestContractCollapsesDefectionGain covers.
	// δ* ≤ 0.9 keeps δ*+0.05 well inside (0,1) and the 400-stage horizon a
	// faithful stand-in for the infinite game (δ^400 ≈ 0).
	defector := -1
	for i, g := range a.DefectionGain {
		if g <= 0 || a.CriticalDelta[i] > 0.9 {
			continue
		}
		if defector < 0 || g > a.DefectionGain[defector] {
			defector = i
		}
	}
	if defector < 0 {
		// Then cooperation must be unsustainable without the contract.
		if without, _ := a.cooperationSustainable(0.999); without {
			t.Error("no deterrable defector yet cooperation reported sustainable")
		}
		t.Skip("no grim-trigger-deterrable defector on this instance")
	}
	delta := math.Min(0.99, a.CriticalDelta[defector]+0.05)
	coopPath, err := pathPayoff(cfg, simulateOptions{
		Stages: 400, Delta: delta, Defector: -1, Analysis: a,
	})
	if err != nil {
		t.Fatal(err)
	}
	defectPath, err := pathPayoff(cfg, simulateOptions{
		Stages: 400, Delta: delta, Defector: defector, DefectionStage: 0, Analysis: a,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Above δ*, defection must not pay for the defector.
	if defectPath[defector] > coopPath[defector]+1e-6 {
		t.Errorf("defection paid above δ*: %v > %v", defectPath[defector], coopPath[defector])
	}
	// Below δ*, it must pay (when δ* is interior).
	if a.CriticalDelta[defector] > 0.05 && a.CriticalDelta[defector] < 1 {
		lowDelta := a.CriticalDelta[defector] * 0.5
		coopLow, err := pathPayoff(cfg, simulateOptions{Stages: 400, Delta: lowDelta, Defector: -1, Analysis: a})
		if err != nil {
			t.Fatal(err)
		}
		defectLow, err := pathPayoff(cfg, simulateOptions{Stages: 400, Delta: lowDelta, Defector: defector, DefectionStage: 0, Analysis: a})
		if err != nil {
			t.Fatal(err)
		}
		if defectLow[defector] <= coopLow[defector] {
			t.Errorf("defection did not pay below δ*: %v <= %v", defectLow[defector], coopLow[defector])
		}
	}
}

func TestPathPayoffValidation(t *testing.T) {
	cfg := defaultGame(t, 7)
	if _, err := pathPayoff(cfg, simulateOptions{Delta: 0.9}); err == nil {
		t.Error("missing analysis accepted")
	}
	a, err := analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{0, 1, -0.3, 1.5} {
		if _, err := pathPayoff(cfg, simulateOptions{Delta: bad, Analysis: a}); err == nil {
			t.Errorf("delta %v accepted", bad)
		}
	}
}

func TestAnalyzeValidation(t *testing.T) {
	cfg := defaultGame(t, 7)
	cfg.Gamma = 0
	if _, err := analyze(cfg); err == nil {
		t.Error("γ = 0 accepted")
	}
	cfg = defaultGame(t, 7)
	cfg.Accuracy = nil
	if _, err := analyze(cfg); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestCriticalDeltaConventions(t *testing.T) {
	if criticalDelta(0, 5) != 0 {
		t.Error("no gain should give δ* = 0")
	}
	if criticalDelta(3, 0) != 1 {
		t.Error("no loss with gain should give δ* = 1")
	}
	if got := criticalDelta(2, 8); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("δ* = %v, want 0.2", got)
	}
}
