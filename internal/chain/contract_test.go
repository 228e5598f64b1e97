package chain

import (
	"encoding/json"
	"testing"

	"tradefl/internal/game"
	"tradefl/internal/randx"
)

// settleContract deposits s's bonds, submits profile and calculates on a
// bare contract, failing the test on any rejection.
func settleContract(t *testing.T, s *Settlement, profile game.Profile) *Contract {
	t.Helper()
	c, err := NewContract(s.Params)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range s.Params.Members {
		args, err := json.Marshal(Contribution{D: profile[i].D, F: profile[i].F})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Apply(m, FnDepositSubmit, nil, s.Deposits[i], 1); err != nil {
			t.Fatalf("deposit %d: %v", i, err)
		}
		if _, err := c.Apply(m, FnContributionSubmit, args, 0, 1); err != nil {
			t.Fatalf("contribution %d: %v", i, err)
		}
	}
	if _, err := c.Apply(s.Params.Members[0], FnPayoffCalculate, nil, 0, 2); err != nil {
		t.Fatalf("payoffCalculate: %v", err)
	}
	return c
}

// TestPairwisePayoffsCorpus settles seeded DefaultConfig games at
// N ∈ {4, 6, 10, 16, 32}, 100 seeds each, on the bare contract. On a random
// in-range profile the payoffs sum to exactly zero and every profileRecord
// entry is the payoff its member was paid. On member i's worst report
// (d_i = f_i = 0 against every other member at d = 1 and the top CPU
// level) its MinDeposit bond is used up to the wei. Row-by-row rounding
// with the residual charged to member 0 breaks the last two on hundreds of
// these games.
func TestPairwisePayoffsCorpus(t *testing.T) {
	for _, n := range []int{4, 6, 10, 16, 32} {
		for seed := int64(1); seed <= 100; seed++ {
			cfg, err := game.DefaultConfig(game.GenOptions{N: n, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSettlement(cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			rng := randx.New(seed)
			profile := make(game.Profile, n)
			fMax := 0.0
			for i, o := range cfg.Orgs {
				profile[i] = game.Strategy{D: rng.Float64(), F: o.CPULevels[rng.Intn(len(o.CPULevels))]}
				fMax = max(fMax, o.CPULevels[len(o.CPULevels)-1])
			}

			c := settleContract(t, s, profile)
			payoffs, err := c.Payoffs()
			if err != nil {
				t.Fatal(err)
			}
			var sum Wei
			for i, m := range s.Params.Members {
				sum += payoffs[i]
				refund, err := c.Apply(m, FnPayoffTransfer, nil, 0, 3)
				if err != nil {
					t.Fatal(err)
				}
				if paid := refund - s.Deposits[i]; paid != payoffs[i] {
					t.Fatalf("N=%d seed %d: member %d paid %d wei, calculated %d", n, seed, i, paid, payoffs[i])
				}
				if _, err := c.Apply(m, FnProfileRecord, nil, 0, 3); err != nil {
					t.Fatal(err)
				}
				if rec := c.Records[len(c.Records)-1]; rec.Payoff != payoffs[i] {
					t.Errorf("N=%d seed %d: member %d recorded %d wei but was paid %d", n, seed, i, rec.Payoff, payoffs[i])
				}
			}
			if sum != 0 {
				t.Errorf("N=%d seed %d: payoffs sum to %d wei", n, seed, sum)
			}

			for i := range n {
				worst := make(game.Profile, n)
				for j := range worst {
					if j != i {
						worst[j] = game.Strategy{D: 1, F: fMax}
					}
				}
				payoffs, err := settleContract(t, s, worst).Payoffs()
				if err != nil {
					t.Fatal(err)
				}
				if left := s.Deposits[i] + payoffs[i]; left != 0 {
					t.Errorf("N=%d seed %d: member %d's worst report leaves %d wei of its %d wei bond", n, seed, i, left, s.Deposits[i])
				}
			}
		}
	}
}
