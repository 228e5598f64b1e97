package gbd

import (
	"testing"

	"tradefl/internal/game"
)

// BenchmarkPrimal measures one water-fill primal solve at a fixed f-vector
// through both engines. The memoized path answers repeat queries from the
// f-vector cache; steady state must be allocation-free (the b.ReportAllocs
// line is the regression gate — see also TestPrimalMemoHits for the
// equivalence side).
func BenchmarkPrimal(b *testing.B) {
	for _, mode := range []struct {
		name string
		inc  game.Toggle
	}{
		{"incremental=on", game.ToggleOn},
		{"incremental=off", game.ToggleOff},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			cfg, err := game.DefaultConfig(game.GenOptions{Seed: 7, NoOrgName: true})
			if err != nil {
				b.Fatal(err)
			}
			s := &solver{}
			if mode.inc.Enabled() {
				s = solvers.New().(*solver)
			}
			s.rebind(cfg, Options{Incremental: mode.inc}.withDefaults())
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
		})
	}
}
