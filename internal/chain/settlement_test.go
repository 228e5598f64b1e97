package chain

import (
	"math"
	"slices"
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

// goldenProfile is the six-member profile of TestSettlementGolden: member
// i reports d_i = (i+1)/7 at its top CPU level.
func goldenProfile(cfg *game.Config) game.Profile {
	p := make(game.Profile, cfg.N())
	for i, o := range cfg.Orgs {
		p[i] = game.Strategy{D: float64(i+1) / 7, F: o.CPULevels[len(o.CPULevels)-1]}
	}
	return p
}

// TestSettlementGolden pins the wei payoffs and the final state root of one
// NewSettlement game (N = 6, seed 18) settled through its four Stages. On
// this game row-by-row rounding settles five of the six members
// differently, so any change to the payoff rule, the bonds or the state
// encoding shows up here.
func TestSettlementGolden(t *testing.T) {
	const seed = 18
	cfg, err := game.DefaultConfig(game.GenOptions{N: 6, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSettlement(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	stages, err := s.Stages(goldenProfile(cfg))
	if err != nil {
		t.Fatal(err)
	}
	bc, err := NewBlockchain(s.Authority, s.Params, s.Alloc)
	if err != nil {
		t.Fatal(err)
	}
	settleStaged(t, bc, stages[:3])
	var payoffs []Wei
	if err := bc.ContractView(func(c *Contract) (err error) {
		payoffs, err = c.Payoffs()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	settleStaged(t, bc, stages[3:])
	want := []Wei{-45924154, -48117609, -2434729, 4763428, 45125417, 46587647}
	if !slices.Equal(payoffs, want) {
		t.Errorf("payoffs %v wei, want %v", payoffs, want)
	}
	if root, want := bc.StateRoot(), "c07c7925921f67c320bc53a5ed1d171286c6ad384aa87c8ad2d421cfb1b3fa88"; root != want {
		t.Errorf("final state root %s, want %s", root, want)
	}
}
