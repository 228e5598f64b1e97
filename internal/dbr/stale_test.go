package dbr

import (
	"testing"

	"tradefl/internal/game"
)

// TestEngineSurvivesInPlaceMutation is the regression test for the pooled
// engine's stale-cache bug: the ext-campaign drift mutates the epoch config in
// place between solves, so an engine that comes back from the pool for the
// same config pointer must not trust its cached static state. Before the
// fix, the pointer-equality fast path skipped the DeltaEvaluator rebuild
// and the second solve returned a wrong equilibrium.
func TestEngineSurvivesInPlaceMutation(t *testing.T) {
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: 11, N: 6, NoOrgName: true})
	if err != nil {
		t.Fatal(err)
	}
	// The first solve binds a pooled engine to cfg.
	if _, err := Solve(cfg, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	// Mutate the config in place exactly like the ext-campaign drift.
	for i := range cfg.Orgs {
		cfg.Orgs[i].Profitability *= 1.4
		cfg.Orgs[i].DataBits *= 1.1
		cfg.Orgs[i].Samples *= 1.1
	}
	cfg.NormalizeRho(game.DefaultZMargin)

	inc, err := Solve(cfg, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	naive := solveNaive(cfg, Options{})
	if len(inc.Profile) != len(naive.Profile) {
		t.Fatalf("profile lengths differ: %d vs %d", len(inc.Profile), len(naive.Profile))
	}
	for i := range inc.Profile {
		if inc.Profile[i] != naive.Profile[i] {
			t.Fatalf("org %d: engine %+v != reference %+v after in-place mutation",
				i, inc.Profile[i], naive.Profile[i])
		}
	}
}
