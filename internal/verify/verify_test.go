package verify

import (
	"encoding/json"
	"testing"

	"tradefl/internal/chain"
	"tradefl/internal/dbr"
	"tradefl/internal/game"
	"tradefl/internal/gbd"
)

func testConfig(t *testing.T, n int, seed int64) *game.Config {
	t.Helper()
	cfg, err := game.DefaultConfig(game.GenOptions{N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func assertClean(t *testing.T, a *Auditor, what string) {
	t.Helper()
	if a.Count() != 0 {
		t.Fatalf("%s: %d unexpected violations:\n%s", what, a.Count(), a.Summary())
	}
	if a.Checks() == 0 {
		t.Fatalf("%s: no checks executed", what)
	}
}

func TestCheckGBDClean(t *testing.T) {
	cfg := testConfig(t, 5, 7)
	res, err := gbd.Solve(cfg, gbd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := New()
	if !a.CheckGBD(cfg, res, 1e-6, "test") {
		t.Fatalf("clean CGBD solve flagged:\n%s", a.Summary())
	}
	assertClean(t, a, "gbd")
}

func TestCheckDBRClean(t *testing.T) {
	cfg := testConfig(t, 5, 7)
	res, err := dbr.Solve(cfg, nil, dbr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := New()
	if !a.CheckDBR(cfg, res, "test") {
		t.Fatalf("clean DBR solve flagged:\n%s", a.Summary())
	}
	assertClean(t, a, "dbr")
}

func TestCheckDBRCleanPersonalized(t *testing.T) {
	cfg := testConfig(t, 4, 11)
	cfg.Personal = game.Personalization{Alpha: 0.35, LocalBoost: 1.4}
	res, err := dbr.Solve(cfg, nil, dbr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := New()
	if !a.CheckDBR(cfg, res, "test") {
		t.Fatalf("clean personalized DBR solve flagged:\n%s", a.Summary())
	}
	assertClean(t, a, "dbr-personalized")
}

func TestCheckIncrementalClean(t *testing.T) {
	cfg := testConfig(t, 6, 3)
	a := New()
	if !a.CheckIncremental(cfg, cfg.MinimalProfile(), 128, 42, "test") {
		t.Fatalf("clean evaluator flagged:\n%s", a.Summary())
	}
	assertClean(t, a, "incremental")
}

// TestHooksAuditEverySolve proves Enable wires the auditor into the
// solvers and the settlement contract, and Disable unwires it.
func TestHooksAuditEverySolve(t *testing.T) {
	a := Enable()
	defer Disable()
	cfg := testConfig(t, 4, 7)
	if _, err := gbd.Solve(cfg, gbd.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := dbr.Solve(cfg, nil, dbr.Options{}); err != nil {
		t.Fatal(err)
	}
	afterSolvers := a.Checks()
	if afterSolvers == 0 {
		t.Fatal("solver hooks did not run any checks")
	}

	// Drive a contract to payoffCalculate; the chain hook must fire.
	members := []chain.Address{"a", "b"}
	params := chain.ContractParams{
		Members:  members,
		Rho:      [][]float64{{0, 0.5}, {0.5, 0}},
		DataBits: []float64{1e9, 2e9},
		Gamma:    1e-9,
		Lambda:   0.1,
	}
	c, err := chain.NewContract(params)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range members {
		if _, err := c.Apply(m, chain.FnDepositSubmit, nil, chain.MinDeposit(params, i, 5e9), 0); err != nil {
			t.Fatal(err)
		}
		args, _ := json.Marshal(chain.Contribution{D: 0.5, F: 4e9})
		if _, err := c.Apply(m, chain.FnContributionSubmit, args, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Apply(members[0], chain.FnPayoffCalculate, nil, 0, 0); err != nil {
		t.Fatal(err)
	}
	if a.Checks() == afterSolvers {
		t.Fatal("settlement hook did not run any checks")
	}
	assertClean(t, a, "hooks")

	Disable()
	before := a.Checks()
	if _, err := dbr.Solve(cfg, nil, dbr.Options{}); err != nil {
		t.Fatal(err)
	}
	if a.Checks() != before {
		t.Fatal("auditor still receiving checks after Disable")
	}
}

func TestDifferentialClean(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness runs full solver cross-checks")
	}
	rep, err := Differential(DiffOptions{Games: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolationCount != 0 {
		t.Fatalf("differential harness found %d violations on healthy solvers:\n%+v", rep.ViolationCount, rep.Violations)
	}
	if rep.Checks == 0 || rep.Games != 4 {
		t.Fatalf("unexpected report: %+v", rep)
	}
}

// TestDifferentialAcrossShapes runs the harness over instances whose size
// cycles 2 → 3 → 4 on 3-level grids. Every CGBD solve in it draws its
// solver from gbd's pool, so consecutive games hand the same recycled
// workspace a different shape — and each result is still checked against
// the exhaustive reference, which shares none of that memory.
func TestDifferentialAcrossShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness runs full solver cross-checks")
	}
	rep, err := Differential(DiffOptions{Games: 6, Seed: 21, MaxOrgs: 4, CPUSteps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolationCount != 0 {
		t.Fatalf("differential harness found %d violations across shape changes:\n%+v", rep.ViolationCount, rep.Violations)
	}
}
