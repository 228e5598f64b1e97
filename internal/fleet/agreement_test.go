package fleet

import (
	"math"
	"testing"

	"tradefl/internal/dbr"
	"tradefl/internal/game"
	"tradefl/internal/gbd"
)

// TestSolversAgreeAcrossTheCrossover is the executable form of "moving the
// crossover to prunedMaxN changed the label, not the answer": on generated
// games either side of it, DBR and the pruned CGBD master return the same
// CPU level for every organization, data fractions within 1e-5 and
// potentials within 1e-12 relative; both profiles are Nash on CheckNash's
// grid, and DBR converges on every size auto hands it.
func TestSolversAgreeAcrossTheCrossover(t *testing.T) {
	for _, m := range []int{3, 5} {
		for n := 5; n <= 11; n++ {
			for seed := int64(1); seed <= 64; seed++ {
				cfg, err := game.DefaultConfig(game.GenOptions{Seed: seed, N: n, CPUSteps: m, NoOrgName: true})
				if err != nil {
					t.Fatal(err)
				}
				d, err := dbr.Solve(cfg, nil, dbr.Options{})
				if err != nil {
					t.Fatalf("N=%d m=%d seed %d: dbr: %v", n, m, seed, err)
				}
				g, err := gbd.Solve(cfg, gbd.Options{Master: gbd.MasterPruned, Workers: 1})
				if err != nil {
					t.Fatalf("N=%d m=%d seed %d: pruned: %v", n, m, seed, err)
				}
				if n > prunedMaxN && !d.Converged {
					t.Errorf("N=%d m=%d seed %d: dbr did not converge in %d sweeps", n, m, seed, d.Rounds)
				}
				for i := range cfg.Orgs {
					ds, gs := d.Profile[i], g.Profile[i]
					if ds.F != gs.F || math.Abs(ds.D-gs.D) > 1e-5 {
						t.Errorf("N=%d m=%d seed %d org %d: dbr %+v, pruned %+v", n, m, seed, i, ds, gs)
					}
				}
				if _, du := d.Final(); math.Abs(du-g.Potential) > 1e-12*math.Abs(g.Potential) {
					t.Errorf("N=%d m=%d seed %d: potential dbr %v, pruned %v", n, m, seed, du, g.Potential)
				}
				for _, p := range []game.Profile{d.Profile, g.Profile} {
					if rep := cfg.CheckNash(p, 50, 1e-9); !rep.IsNash {
						t.Errorf("N=%d m=%d seed %d: %v", n, m, seed, rep)
					}
				}
			}
		}
	}
}
