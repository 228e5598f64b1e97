package dbr

import (
	"testing"

	"tradefl/internal/game"
)

// TestSolveParallelEquivalence checks that Algorithm 2 produces a byte-
// identical equilibrium and convergence trace whatever Options.Workers
// says: the field is accepted and ignored.
func TestSolveParallelEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		cfg, err := game.DefaultConfig(game.GenOptions{Seed: seed, NoOrgName: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		serial, err := Solve(cfg, nil, Options{Workers: 1})
		if err != nil {
			t.Fatalf("seed %d: serial: %v", seed, err)
		}
		for _, workers := range []int{2, 8} {
			par, err := Solve(cfg, nil, Options{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if par.Rounds != serial.Rounds || par.Converged != serial.Converged {
				t.Fatalf("seed %d workers %d: rounds/converged (%d,%v) != serial (%d,%v)",
					seed, workers, par.Rounds, par.Converged, serial.Rounds, serial.Converged)
			}
			for i := range serial.Profile {
				if par.Profile[i] != serial.Profile[i] {
					t.Fatalf("seed %d workers %d: profile[%d] = %+v != serial %+v",
						seed, workers, i, par.Profile[i], serial.Profile[i])
				}
			}
			if len(par.PotentialTrace) != len(serial.PotentialTrace) {
				t.Fatalf("seed %d workers %d: potential trace length mismatch", seed, workers)
			}
			for k := range serial.PotentialTrace {
				if par.PotentialTrace[k] != serial.PotentialTrace[k] {
					t.Fatalf("seed %d workers %d: potential trace[%d] = %v != %v",
						seed, workers, k, par.PotentialTrace[k], serial.PotentialTrace[k])
				}
			}
			for k := range serial.PayoffTrace {
				for i := range serial.PayoffTrace[k] {
					if par.PayoffTrace[k][i] != serial.PayoffTrace[k][i] {
						t.Fatalf("seed %d workers %d: payoff trace[%d][%d] = %v != %v",
							seed, workers, k, i, par.PayoffTrace[k][i], serial.PayoffTrace[k][i])
					}
				}
			}
		}
	}
}
