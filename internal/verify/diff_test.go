package verify

import (
	"fmt"
	"math"

	"tradefl/internal/dbr"
	"tradefl/internal/game"
	"tradefl/internal/gbd"
	"tradefl/internal/optimize"
	"tradefl/internal/randx"
)

// DiffOptions configures the differential verification harness.
type DiffOptions struct {
	// Games is the number of random instances to cross-run (default 6).
	Games int
	// Seed drives instance generation (default 1).
	Seed int64
	// MaxOrgs caps the instance size; the exhaustive cross-check
	// enumerates CPUSteps^N grid points, so keep it small (default 3).
	MaxOrgs int
	// CPUSteps is the per-organization CPU grid size (default 2).
	CPUSteps int
	// Slack is the relative tolerance of the cross-solver welfare
	// comparisons, covering the independent solver's own convergence error
	// (default 1e-6).
	Slack float64
	// Auditor receives the violations (default: a fresh New()).
	Auditor *Auditor
}

func (o DiffOptions) withDefaults() DiffOptions {
	if o.Games == 0 {
		o.Games = 6
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxOrgs == 0 {
		o.MaxOrgs = 3
	}
	if o.CPUSteps == 0 {
		o.CPUSteps = 2
	}
	if o.Slack == 0 {
		o.Slack = 1e-6
	}
	if o.Auditor == nil {
		o.Auditor = New()
	}
	return o
}

// DiffReport is the outcome of one Differential run.
type DiffReport struct {
	// Games is the number of instances cross-run.
	Games int `json:"games"`
	// Checks and ViolationCount fold the auditor's totals for this run.
	Checks         int64 `json:"checks"`
	ViolationCount int64 `json:"violations"`
	// Violations lists the retained breach records.
	Violations []Violation `json:"violationDetails,omitempty"`
}

// Differential fuzzes random game.Config instances and cross-runs the
// repo's solvers against independent implementations:
//
//   - CGBD vs exhaustive: every CPU grid point's primal is solved by
//     projected gradient ascent with a numeric gradient — sharing no code
//     with the water-fill primal or the cut-based master — and the best
//     value must bracket the CGBD potential within ε plus Slack;
//   - DBR vs CGBD: the best-response equilibrium's potential cannot exceed
//     the CGBD global optimum beyond ε plus Slack;
//   - every profile passes the transfer, Nash, evaluator (DeltaEvaluator
//     vs Config.Payoff, bit for bit) and solver-trace audits, including a
//     personalized (α > 0) DBR variant per instance.
//
// Violations land in the auditor; the report folds the counts.
func Differential(opts DiffOptions) (*DiffReport, error) {
	opts = opts.withDefaults()
	a := opts.Auditor
	startChecks, startViol := a.Checks(), a.Count()
	src := randx.New(opts.Seed)
	mus := []float64{0.05, 0.1, 0.2}
	for g := 0; g < opts.Games; g++ {
		n := 2 + g%(opts.MaxOrgs-1)
		gen := game.GenOptions{
			Seed:     opts.Seed + int64(g)*1013,
			N:        n,
			CPUSteps: opts.CPUSteps,
			Mu:       mus[g%len(mus)],
			Gamma:    game.DefaultGamma * src.Uniform(0.5, 2),
		}
		cfg, err := game.DefaultConfig(gen)
		if err != nil {
			return nil, fmt.Errorf("diff: game %d: %w", g, err)
		}
		if err := diffOne(a, cfg, gen.Seed, opts); err != nil {
			return nil, fmt.Errorf("diff: game %d: %w", g, err)
		}
	}
	return &DiffReport{
		Games:          opts.Games,
		Checks:         a.Checks() - startChecks,
		ViolationCount: a.Count() - startViol,
		Violations:     a.Violations(),
	}, nil
}

// diffOne cross-runs one instance through every differential check.
func diffOne(a *Auditor, cfg *game.Config, seed int64, opts DiffOptions) error {
	eps := 1e-6 // the gbd default ε, also passed explicitly below
	gres, err := gbd.Solve(cfg, gbd.Options{Epsilon: eps})
	if err != nil {
		return fmt.Errorf("gbd: %w", err)
	}
	a.CheckGBD(cfg, gres, eps, "diff.gbd")

	// Exhaustive reference: enumerate the full CPU grid, solve each primal
	// by projected gradient with a numeric gradient, take the best.
	exhaustive, feasible := exhaustiveBest(cfg)
	if feasible {
		a.begin()
		slack := opts.Slack * math.Max(1, math.Abs(exhaustive))
		if gres.Potential < exhaustive-eps-slack || gres.Potential > exhaustive+slack {
			a.violate(Violation{
				Check: "diff-gbd-exhaustive", Source: "diff",
				Detail: fmt.Sprintf("CGBD potential %.9g outside [%.9g − ε, %.9g + slack] of the exhaustive optimum", gres.Potential, exhaustive, exhaustive),
				Delta:  math.Abs(gres.Potential - exhaustive),
			})
		}
	}

	dres, err := dbr.Solve(cfg, nil, dbr.Options{})
	if err != nil {
		return fmt.Errorf("dbr: %w", err)
	}
	a.CheckDBR(cfg, dres, "diff.dbr")

	// A Nash equilibrium's potential cannot beat the global optimum.
	a.begin()
	dbrPotential := cfg.Potential(dres.Profile)
	if slack := opts.Slack * math.Max(1, math.Abs(gres.Potential)); dbrPotential > gres.Potential+eps+slack {
		a.violate(Violation{
			Check: "diff-dbr-gbd", Source: "diff",
			Detail: fmt.Sprintf("DBR potential %.9g exceeds CGBD optimum %.9g + ε", dbrPotential, gres.Potential),
			Delta:  dbrPotential - gres.Potential,
		})
	}

	a.CheckIncremental(cfg, dres.Profile, 64, seed, "diff")

	// Personalized variant (α > 0): CGBD declines these, so audit the DBR
	// equilibrium and the transfer identities only.
	pcfg, err := game.DefaultConfig(game.GenOptions{Seed: seed, N: cfg.N(), CPUSteps: opts.CPUSteps})
	if err != nil {
		return fmt.Errorf("personalized config: %w", err)
	}
	pcfg.Personal = game.Personalization{Alpha: 0.3, LocalBoost: 1.5}
	pres, err := dbr.Solve(pcfg, nil, dbr.Options{})
	if err != nil {
		return fmt.Errorf("personalized dbr: %w", err)
	}
	a.CheckDBR(pcfg, pres, "diff.dbr.personal")
	a.CheckIncremental(pcfg, pres.Profile, 64, seed+1, "diff.personal")
	return nil
}

// exhaustiveBest maximizes the potential over the full discrete CPU grid,
// solving each fixed-f primal with projected gradient ascent on a numeric
// gradient — an implementation deliberately independent of the water-fill
// primal and the cut-based master. ok is false when no grid point is
// feasible.
func exhaustiveBest(cfg *game.Config) (best float64, ok bool) {
	n := cfg.N()
	best = math.Inf(-1)
	idx := make([]int, n)
	p := make(game.Profile, n)
	lo := make([]float64, n)
	hi := make([]float64, n)
	x0 := make([]float64, n)
	for {
		feasible := true
		for i := 0; i < n; i++ {
			f := cfg.Orgs[i].CPULevels[idx[i]]
			p[i] = game.Strategy{F: f}
			l, h, okd := cfg.FeasibleD(i, f)
			if !okd {
				feasible = false
				break
			}
			lo[i], hi[i] = l, h
			x0[i] = (l + h) / 2
		}
		if feasible {
			value := func(d []float64) float64 {
				for i := range d {
					p[i].D = d[i]
				}
				return cfg.Potential(p)
			}
			grad := func(d, g []float64) { float64Grad(value, d, lo, hi, g) }
			if _, v, err := optimize.ProjectedGradient(value, grad, x0, lo, hi,
				optimize.PGOptions{MaxIter: 4000, Tol: 1e-10}); err == nil && v > best {
				best = v
				ok = true
			}
		}
		// Odometer over the CPU grids.
		k := 0
		for ; k < n; k++ {
			idx[k]++
			if idx[k] < len(cfg.Orgs[k].CPULevels) {
				break
			}
			idx[k] = 0
		}
		if k == n {
			return best, ok
		}
	}
}

// float64Grad fills g with a central-difference gradient of value at d,
// clipping probe points into the box.
func float64Grad(value func([]float64) float64, d, lo, hi, g []float64) {
	probe := make([]float64, len(d))
	copy(probe, d)
	for i := range d {
		h := 1e-6 * math.Max(1e-3, hi[i]-lo[i])
		up := math.Min(d[i]+h, hi[i])
		down := math.Max(d[i]-h, lo[i])
		if up == down {
			g[i] = 0
			continue
		}
		probe[i] = up
		fu := value(probe)
		probe[i] = down
		fd := value(probe)
		probe[i] = d[i]
		g[i] = (fu - fd) / (up - down)
	}
}
