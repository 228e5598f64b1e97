// Package baselines implements the four comparison schemes of the paper's
// evaluation (Sec. VI):
//
//   - WPR: DBR without payoff redistribution — organizations derive payoff
//     solely from the global model (Eq. 10 removed from C_i).
//   - GCA: DBR with greedy computation allocation — f_i is tied to the data
//     fraction, f_i = k·d_i, rather than optimized.
//   - FIP: finite-improvement-property dynamics on a discretized data grid
//     d̂ ∈ {e, 2e, …, 1}.
//   - TOS: the theoretically optimal scheme — every organization
//     contributes all data and computation, ignoring deadline and damage.
//
// Every scheme returns the common Outcome type so the experiment harness
// can compare welfare, damage, contribution and convergence uniformly.
package baselines

import (
	"fmt"
	"math"

	"tradefl/internal/dbr"
	"tradefl/internal/game"
)

// Scheme names the solution schemes compared in Figs. 4-15.
type Scheme string

// Scheme identifiers. CGBD and DBR are the paper's proposals; the rest are
// baselines.
const (
	SchemeCGBD Scheme = "CGBD"
	SchemeDBR  Scheme = "DBR"
	SchemeWPR  Scheme = "WPR"
	SchemeGCA  Scheme = "GCA"
	SchemeFIP  Scheme = "FIP"
	SchemeTOS  Scheme = "TOS"
)

// AllSchemes lists every scheme in presentation order.
func AllSchemes() []Scheme {
	return []Scheme{SchemeCGBD, SchemeDBR, SchemeWPR, SchemeGCA, SchemeFIP, SchemeTOS}
}

// Outcome is the uniform result of running a scheme on a game config.
type Outcome struct {
	Scheme Scheme
	// Profile is the final strategy profile.
	Profile game.Profile
	// PotentialTrace records U(π) per iteration where the scheme iterates.
	PotentialTrace []float64
	// Converged reports whether the scheme's dynamics reached a fixed
	// point within its iteration budget (always true for TOS).
	Converged bool
	// Rounds is the number of iterations performed.
	Rounds int
}

// SocialWelfare evaluates Σ_i C_i of the outcome under cfg. Because
// redistribution is budget-balanced, welfare is comparable across schemes
// with and without redistribution.
func (o *Outcome) SocialWelfare(cfg *game.Config) float64 {
	return cfg.SocialWelfare(o.Profile)
}

// TotalData returns Σ_i d_i, the series of Fig. 12.
func (o *Outcome) TotalData() float64 {
	var sum float64
	for _, s := range o.Profile {
		sum += s.D
	}
	return sum
}

// WPR runs best-response dynamics on the game with payoff redistribution
// removed (γ = 0). The returned potential trace is evaluated under the
// *original* config so that Fig. 4 curves are on a common axis.
func WPR(cfg *game.Config) (*Outcome, error) {
	stripped := *cfg
	stripped.Gamma = 0
	res, err := dbr.Solve(&stripped, nil, dbr.Options{})
	if err != nil {
		return nil, fmt.Errorf("wpr: %w", err)
	}
	return &Outcome{
		Scheme:         SchemeWPR,
		Profile:        res.Profile,
		Converged:      res.Converged,
		Rounds:         res.Rounds,
		PotentialTrace: res.PotentialTrace,
	}, nil
}

// The greedy-computation-allocation baseline.
const (
	// gcaMaxRounds caps the best-response sweeps.
	gcaMaxRounds = 200
	// gcaTol is the improvement threshold.
	gcaTol = 1e-9
	// gcaDGrid is the number of candidate d values scanned per response
	// (the payoff is only piecewise-concave in d because f snaps between
	// CPU levels as d changes).
	gcaDGrid = 200
)

// gcaFreq snaps k·d to the nearest CPU level of organization i.
func gcaFreq(cfg *game.Config, i int, k, d float64) float64 {
	target := k * d
	levels := cfg.Orgs[i].CPULevels
	best := levels[0]
	bestGap := math.Abs(levels[0] - target)
	for _, f := range levels[1:] {
		if gap := math.Abs(f - target); gap < bestGap {
			best, bestGap = f, gap
		}
	}
	return best
}

// GCA runs best-response dynamics where each organization optimizes d only
// and commits f = k·d (snapped to its CPU grid), the paper's "greedy
// computation allocation" baseline. k is greedy: per organization,
// k = 1.5·F^(m), i.e. two thirds of the data budget already demands the
// fastest CPU level — over-provisioning computation in proportion to data
// as the baseline prescribes.
func GCA(cfg *game.Config) (*Outcome, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("gca: %w", err)
	}
	n := cfg.N()
	p := make(game.Profile, n)
	ks := make([]float64, n)
	for i, o := range cfg.Orgs {
		ks[i] = 1.5 * o.CPULevels[len(o.CPULevels)-1]
		p[i] = game.Strategy{D: cfg.DMin, F: gcaFreq(cfg, i, ks[i], cfg.DMin)}
	}
	out := &Outcome{Scheme: SchemeGCA}
	for t := 0; t < gcaMaxRounds; t++ {
		out.Rounds = t + 1
		changed := false
		for i := range cfg.Orgs {
			cur := cfg.Payoff(i, p)
			bestVal := cur
			best := p[i]
			for g := 0; g < gcaDGrid; g++ {
				d := cfg.DMin + (1-cfg.DMin)*float64(g)/float64(gcaDGrid-1)
				f := gcaFreq(cfg, i, ks[i], d)
				lo, hi, feasible := cfg.FeasibleD(i, f)
				if !feasible || d < lo || d > hi {
					continue
				}
				cand := p[i]
				p[i] = game.Strategy{D: d, F: f}
				val := cfg.Payoff(i, p)
				p[i] = cand
				if val > bestVal+gcaTol {
					bestVal = val
					best = game.Strategy{D: d, F: f}
				}
			}
			if best != p[i] {
				p[i] = best
				changed = true
			}
		}
		out.PotentialTrace = append(out.PotentialTrace, cfg.Potential(p))
		if !changed {
			out.Converged = true
			break
		}
	}
	out.Profile = p
	return out, nil
}

// The finite-improvement-property baseline.
const (
	// fipStep is e, the grid spacing of d̂ ∈ {e, 2e, …, 1}; the paper
	// requires e ∈ [D_min, 1], so a larger D_min replaces it.
	fipStep = 0.1
	// fipMaxMoves caps the number of single-player improvement moves.
	fipMaxMoves = 10000
	// fipTol is the improvement threshold.
	fipTol = 1e-9
)

// FIP runs single-move better-response dynamics on the discretized strategy
// space. By the finite improvement property of potential games every move
// strictly increases the potential, so the dynamics terminate at a grid
// Nash equilibrium.
func FIP(cfg *game.Config) (*Outcome, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("fip: %w", err)
	}
	step := fipStep
	if step < cfg.DMin {
		step = cfg.DMin
	}
	var grid []float64
	for d := step; d <= 1+1e-12; d += step {
		grid = append(grid, math.Min(d, 1))
	}
	p := cfg.MinimalProfile()
	// Snap the start onto the grid.
	for i := range p {
		p[i].D = grid[0]
	}
	out := &Outcome{Scheme: SchemeFIP}
	out.PotentialTrace = append(out.PotentialTrace, cfg.Potential(p))
	for move := 0; move < fipMaxMoves; move++ {
		improved := false
		for i := range cfg.Orgs {
			cur := cfg.Payoff(i, p)
			bestVal := cur
			best := p[i]
			for _, f := range cfg.Orgs[i].CPULevels {
				lo, hi, feasible := cfg.FeasibleD(i, f)
				if !feasible {
					continue
				}
				for _, d := range grid {
					if d < lo-1e-12 || d > hi+1e-12 {
						continue
					}
					cand := p[i]
					p[i] = game.Strategy{D: d, F: f}
					val := cfg.Payoff(i, p)
					p[i] = cand
					if val > bestVal+fipTol {
						bestVal = val
						best = game.Strategy{D: d, F: f}
					}
				}
			}
			if best != p[i] {
				p[i] = best
				improved = true
				out.PotentialTrace = append(out.PotentialTrace, cfg.Potential(p))
				break // single improvement move per step (FIP dynamics)
			}
		}
		out.Rounds++
		if !improved {
			out.Converged = true
			break
		}
	}
	out.Profile = p
	return out, nil
}

// TOS returns the theoretically optimal scheme: d_i = 1 and f_i = F^(m)
// for every organization, ignoring the deadline constraint and coopetition
// damage (used as the accuracy upper envelope in Figs. 12-15).
func TOS(cfg *game.Config) *Outcome {
	p := make(game.Profile, cfg.N())
	for i, o := range cfg.Orgs {
		p[i] = game.Strategy{D: 1, F: o.CPULevels[len(o.CPULevels)-1]}
	}
	return &Outcome{
		Scheme:         SchemeTOS,
		Profile:        p,
		PotentialTrace: []float64{cfg.Potential(p)},
		Converged:      true,
		Rounds:         1,
	}
}
