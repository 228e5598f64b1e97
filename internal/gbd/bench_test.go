package gbd

import (
	"testing"

	"tradefl/internal/game"
)

// BenchmarkPrimal measures one water-fill primal solve at a fixed f-vector.
// A run keeps every primal's d and u in the solve arena until its next
// rebind; the loop hands the two slices back after each solve instead —
// zeroed, as the arena promises them — so b.N solves need the memory of
// one and the steady state must be allocation-free (the b.ReportAllocs
// line is the regression gate).
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
	floats := &s.solve.f
	cur, off := floats.cur, floats.off
	solve := func() {
		d, u, feasible := s.solvePrimal(f, fIdx)
		if !feasible {
			b.Fatal("primal infeasible at the top CPU levels")
		}
		clear(d)
		clear(u)
		floats.cur, floats.off = cur, off
	}
	solve() // the arena's one growth, if the solve outgrew its first chunk
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve()
	}
}
