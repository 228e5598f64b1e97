package verify

// Mutation self-tests: every invariant family gets a seeded, deliberately
// broken input, and the corresponding check MUST fire. A passing suite
// proves the auditor is live — a check that never fires is
// indistinguishable from a check that is wired to nothing. scripts/ci.sh
// runs these as the `-run Mutation` verify gate.

import (
	"testing"

	"tradefl/internal/chain"
	"tradefl/internal/dbr"
	"tradefl/internal/game"
	"tradefl/internal/gbd"
)

// assertFired asserts that check `id` is among the auditor's violations.
func assertFired(t *testing.T, a *Auditor, id string) {
	t.Helper()
	for _, v := range a.Violations() {
		if v.Check == id {
			return
		}
	}
	t.Fatalf("injected violation did not trigger %q; got:\n%s", id, a.Summary())
}

func TestMutationPotentialDecrease(t *testing.T) {
	a := New()
	if a.CheckPotentialMonotone("mut", []float64{1, 2, 1.5, 3}) {
		t.Fatal("potential drop not detected")
	}
	assertFired(t, a, "potential-monotone")
}

func TestMutationPotentialNaN(t *testing.T) {
	a := New()
	nan := 0.0
	nan /= nan
	if a.CheckPotentialMonotone("mut", []float64{1, nan, 2}) {
		t.Fatal("NaN trace entry not detected")
	}
	assertFired(t, a, "potential-nan")
}

func TestMutationAsymmetricRho(t *testing.T) {
	cfg, err := game.DefaultConfig(game.GenOptions{N: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Bypass Validate: break ρ symmetry in place. The transfer matrix loses
	// antisymmetry and the budget stops balancing.
	cfg.Rho[0][1] *= 1.5
	a := New()
	if a.CheckTransfers(cfg, cfg.MinimalProfile(), "mut") {
		t.Fatal("asymmetric ρ not detected")
	}
	assertFired(t, a, "transfer-antisymmetry")
	assertFired(t, a, "budget-balance")
}

func TestMutationBoundInversion(t *testing.T) {
	cfg, err := game.DefaultConfig(game.GenOptions{N: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := gbd.Solve(cfg, gbd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Invert the final bounds: claim a tighter upper bound than the
	// incumbent lower bound.
	res.UpperBounds[len(res.UpperBounds)-1] = res.LowerBounds[len(res.LowerBounds)-1] - 1
	a := New()
	if a.CheckGBD(cfg, res, 1e-6, "mut") {
		t.Fatal("bound inversion not detected")
	}
	assertFired(t, a, "bound-inversion")
}

func TestMutationBoundGap(t *testing.T) {
	cfg, err := game.DefaultConfig(game.GenOptions{N: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := gbd.Solve(cfg, gbd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Claim convergence with a gap far beyond ε.
	res.Converged = true
	res.UpperBounds[len(res.UpperBounds)-1] = res.LowerBounds[len(res.LowerBounds)-1] + 1
	a := New()
	if a.CheckGBD(cfg, res, 1e-6, "mut") {
		t.Fatal("oversized converged gap not detected")
	}
	assertFired(t, a, "bound-gap")
}

func TestMutationNashDeviation(t *testing.T) {
	cfg, err := game.DefaultConfig(game.GenOptions{N: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dbr.Solve(cfg, nil, dbr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("reference solve did not converge")
	}
	// Drag one organization off its best response: the minimum data
	// fraction at the slowest CPU level is far from any equilibrium of the
	// default instance.
	res.Profile[0] = game.Strategy{D: cfg.DMin, F: cfg.Orgs[0].CPULevels[0]}
	a := New()
	if a.CheckDBR(cfg, res, "mut") {
		t.Fatal("profitable deviation not detected")
	}
	assertFired(t, a, "nash-deviation")
	// The mutated profile also breaks the trace-vs-profile consistency.
	assertFired(t, a, "potential-consistency")
}

func TestMutationSettlementImbalance(t *testing.T) {
	params := chain.ContractParams{
		Members:  []chain.Address{"a", "b", "c"},
		Rho:      [][]float64{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}},
		DataBits: []float64{1, 1, 1},
		Gamma:    1,
		Lambda:   0,
	}
	contribs := []chain.Contribution{{D: 0.5}, {D: 0.25}, {D: 0.75}}
	// Correct payoffs for this instance, then one wei skimmed from b to
	// nowhere — the balance breaks and b's payoff mismatches.
	payoffs := []chain.Wei{0, -750_000, 750_000}
	payoffs[0] = -(payoffs[1] + payoffs[2])
	a := New()
	if !a.CheckSettlement(params, contribs, payoffs, "mut-clean") {
		t.Fatalf("clean settlement flagged:\n%s", a.Summary())
	}
	payoffs[1]--
	if a.CheckSettlement(params, contribs, payoffs, "mut") {
		t.Fatal("skimmed wei not detected")
	}
	assertFired(t, a, "settlement-balance")
	assertFired(t, a, "settlement-mismatch")

	// The rule the contract gave up rounded each R_i to wei and charged
	// the residual to member 0. At x = [3e-7, 3e-7, 0] its rows are
	// [+0.3, +0.3, −0.6] wei → [0, 0, −1], and member 0 was credited the
	// −1 residual: [1, 0, −1]. Those payoffs balance, but every pairwise
	// transfer here is under half a wei, so the settlement is [0, 0, 0].
	contribs = []chain.Contribution{{D: 3e-7}, {D: 3e-7}, {D: 0}}
	a.Reset()
	if !a.CheckSettlement(params, contribs, []chain.Wei{0, 0, 0}, "pairwise") {
		t.Fatalf("pairwise settlement flagged:\n%s", a.Summary())
	}
	if a.CheckSettlement(params, contribs, []chain.Wei{1, 0, -1}, "row-rounded") {
		t.Fatal("row-rounded settlement with its residual charge not detected")
	}
	assertFired(t, a, "settlement-mismatch")
}

func TestMutationEvaluatorDesync(t *testing.T) {
	cfg, err := game.DefaultConfig(game.GenOptions{N: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p := cfg.MinimalProfile()
	ev := game.NewDeltaEvaluator(cfg)
	ev.Bind(p)
	// Desync: the evaluator moves org 0, the claimed profile does not.
	levels := cfg.Orgs[0].CPULevels
	ev.Update(0, game.Strategy{D: 0.9, F: levels[len(levels)-1]})
	a := New()
	if a.CheckEvaluator(cfg, ev, p, 32, 5, "mut") {
		t.Fatal("desynced evaluator not detected")
	}
	assertFired(t, a, "evaluator-mismatch")
}

func TestMutationViolationCapAndReset(t *testing.T) {
	a := New()
	for k := 0; k < maxViolations+3; k++ {
		a.CheckPotentialMonotone("mut", []float64{2, 1})
	}
	if got := a.Count(); got != maxViolations+3 {
		t.Fatalf("Count = %d, want %d (counting past the cap)", got, maxViolations+3)
	}
	if got := len(a.Violations()); got != 256 {
		t.Fatalf("retained %d violations, want cap 256", got)
	}
	a.Reset()
	if a.Count() != 0 || a.Checks() != 0 || len(a.Violations()) != 0 {
		t.Fatal("Reset did not clear the auditor")
	}
}
