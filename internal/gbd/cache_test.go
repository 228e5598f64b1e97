package gbd

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"tradefl/internal/game"
)

// gbdGames yields CGBD instances across sizes, grid densities and
// competition intensities (CGBD rejects the personalization extension, so
// only the base model).
func gbdGames(t *testing.T) []*game.Config {
	t.Helper()
	var cfgs []*game.Config
	for _, gen := range []game.GenOptions{
		{Seed: 7},
		{Seed: 3, N: 4, CPUSteps: 5},
		{Seed: 11, N: 6, Mu: 0.9},
	} {
		cfg, err := game.DefaultConfig(gen)
		if err != nil {
			t.Fatalf("DefaultConfig(%+v): %v", gen, err)
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// stepSolve is Algorithm 1's loop — solver.run without spans, metrics and
// Result assembly — over the solver's own primal, cut tabulation and
// master, checking at every step the two facts that let the solver keep no
// primal memo and evict no cut:
//
//   - the master never proposes a grid point whose primal was already
//     solved (a revisited f has φ(f) ≤ its own cut = its primal value ≤ LB,
//     so UB − LB ≤ ε ends the loop first);
//   - an optimality cut is tight at the grid point that generated it, so no
//     other valid cut can sit strictly below it there.
//
// It returns the iteration count and the incumbent potential, which the
// caller holds against solver.run's to show this is the loop that ships.
func stepSolve(t *testing.T, s *solver, label string) (iterations int, potential float64) {
	t.Helper()
	cfg := s.cfg
	n := cfg.N()
	f, fIdx := make([]float64, n), make([]int, n)
	for i, o := range cfg.Orgs {
		fIdx[i] = len(o.CPULevels) - 1
		f[i] = o.CPULevels[fIdx[i]]
	}
	trial := make(game.Profile, n)
	var visited [][]int
	lb, ub := math.Inf(-1), math.Inf(1)
	for k := 0; k < s.opts.MaxIter; k++ {
		iterations = k + 1
		for at, seen := range visited {
			if slices.Equal(seen, fIdx) {
				t.Fatalf("%s: iteration %d asks for the primal of %v, solved in iteration %d", label, k, fIdx, at)
			}
		}
		visited = append(visited, slices.Clone(fIdx))
		d, u, feasible := s.solvePrimal(f, fIdx)
		if feasible {
			var omegaHat float64
			for i := range trial {
				trial[i] = game.Strategy{D: d[i], F: f[i]}
				omegaHat += d[i] * s.scale[i]
			}
			val := cfg.Potential(trial)
			lb = math.Max(lb, val)
			s.lb = lb
			s.addOptCut(optimalityCut{
				u:        u,
				omegaHat: omegaHat,
				pHat:     cfg.Accuracy.Value(omegaHat),
				pSlope:   cfg.Accuracy.Derivative(omegaHat),
			})
			tab := s.tables
			v := len(tab.opt) - 1
			own := tab.optConst[v]
			for i, lvl := range fIdx {
				own += tab.opt[v][i][lvl]
			}
			if math.Abs(own-val) > 1e-9*math.Max(1, math.Abs(val)) {
				t.Errorf("%s: iteration %d: cut at its own grid point %v = %v, primal value %v", label, k, fIdx, own, val)
			}
		} else {
			s.addFeasCut(feasibilityCut{d: d, lambda: s.solveFeasibility(f)})
		}
		fIdxNext, fNext, phi, ok := s.solveMaster()
		if !ok {
			break
		}
		ub = math.Min(ub, phi)
		if ub-lb <= s.opts.Epsilon {
			break
		}
		f, fIdx = fNext, fIdxNext
	}
	return iterations, lb
}

// TestNoPrimalRevisitTightCuts runs stepSolve over a seeded corpus — with
// the traversal master too wherever its Θ(m^N) grid is small — and, on a
// few instances, with a deadline that makes feasibility cuts fire.
func TestNoPrimalRevisitTightCuts(t *testing.T) {
	const seeds, traversalGrid = 20, 20_000
	check := func(cfg *game.Config, master MasterSolver, label string) {
		opts := Options{Master: master}.withDefaults()
		want, err := solveOn(freshSolver(), cfg, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		s := freshSolver()
		s.rebind(cfg, opts)
		iters, pot := stepSolve(t, s, label)
		if iters != want.Iterations || math.Float64bits(pot) != math.Float64bits(want.Potential) {
			t.Fatalf("%s: stepSolve = (%d iterations, %v), solver.run = (%d, %v)",
				label, iters, pot, want.Iterations, want.Potential)
		}
	}
	for n := 3; n <= 11; n++ {
		for steps := 3; steps <= 5; steps++ {
			for seed := int64(1); seed <= seeds; seed++ {
				cfg, err := game.DefaultConfig(game.GenOptions{Seed: seed, N: n, CPUSteps: steps, NoOrgName: true})
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("N=%d steps=%d seed=%d", n, steps, seed)
				check(cfg, MasterPruned, label+" pruned")
				if math.Pow(float64(steps), float64(n)) <= traversalGrid {
					check(cfg, MasterTraversal, label+" traversal")
				}
				if n <= 6 && seed <= 5 {
					cfg.DMin = 0.6
					cfg.Deadline = 0.5 + 0.6*25e9/4.2e9 // slow levels cannot fit DMin
					check(cfg, MasterPruned, label+" tight deadline")
				}
			}
		}
	}
}
