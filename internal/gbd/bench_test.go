package gbd

import (
	"testing"

	"tradefl/internal/game"
)

// BenchmarkPrimal measures one water-fill primal solve at a fixed f-vector.
// Repeat queries are answered from the f-vector memo; steady state must be
// allocation-free (the b.ReportAllocs line is the regression gate — see
// also TestPrimalMemoHits).
func BenchmarkPrimal(b *testing.B) {
	b.ReportAllocs()
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: 7, NoOrgName: true})
	if err != nil {
		b.Fatal(err)
	}
	s := solvers.New().(*solver)
	s.rebind(cfg, Options{}.withDefaults())
	n := cfg.N()
	f := make([]float64, n)
	fIdx := make([]int, n)
	for i := 0; i < n; i++ {
		levels := cfg.Orgs[i].CPULevels
		fIdx[i] = len(levels) - 1
		f[i] = levels[fIdx[i]]
	}
	if _, _, feasible := s.solvePrimal(f, fIdx); !feasible {
		b.Fatal("primal infeasible at the top CPU levels")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, feasible := s.solvePrimal(f, fIdx); !feasible {
			b.Fatal("primal infeasible")
		}
	}
}
