package chain

import (
	"math"
	"testing"

	"tradefl/internal/dbr"
	"tradefl/internal/game"
	"tradefl/internal/randx"
)

// TestSettlementCreditsAreQualityWeighted: with quality-weighted
// organizations the contract must credit q_i·s_i, the x_i the game pays.
// Settling the four Stages of a DBR equilibrium in process lands every
// on-chain payoff on the game's R_i (within core's cross-check tolerance),
// the payoffs balance to the wei, and the keys are the seed's draws in
// order: the authority first, then one per organization.
func TestSettlementCreditsAreQualityWeighted(t *testing.T) {
	const seed = 7
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Orgs[0].Quality, cfg.Orgs[1].Quality = 0.5, 0.25
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	solved, err := dbr.Solve(cfg, nil, dbr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSettlement(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	stages, err := s.Stages(solved.Profile)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := NewBlockchain(s.Authority, s.Params, s.Alloc)
	if err != nil {
		t.Fatal(err)
	}
	// The contract holds the payoffs between calculate and the transfers
	// that pay them out.
	settleStaged(t, bc, stages[:3])
	var payoffs []Wei
	if err := bc.ContractView(func(c *Contract) (err error) {
		payoffs, err = c.Payoffs()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	settleStaged(t, bc, stages[3:])
	var sum Wei
	for i, w := range payoffs {
		sum += w
		want := cfg.Redistribution(i, solved.Profile)
		if got := FromWei(w); math.Abs(got-want) > 1e-3*math.Max(1, math.Abs(want)) {
			t.Errorf("on-chain payoff[%d] = %v, game R_i = %v", i, got, want)
		}
	}
	if sum != 0 {
		t.Errorf("payoffs sum to %d wei, want 0", sum)
	}

	src := randx.New(seed)
	for i, got := range append([]*Account{s.Authority}, s.Accounts...) {
		want, err := NewAccount(src)
		if err != nil {
			t.Fatal(err)
		}
		if got.Address() != want.Address() {
			t.Errorf("key %d is %s, want draw %d of randx.New(%d): %s", i, got.Address(), i+1, seed, want.Address())
		}
	}
}
