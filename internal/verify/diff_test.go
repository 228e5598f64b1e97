package verify

import (
	"fmt"
	"math"
	"testing"

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
			if _, v := projectedGradient(value, grad, x0, lo, hi, 4000, 1e-10); v > best {
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

// projectedGradient maximizes a concave objective over the box [lo, hi]
// by projected gradient ascent with backtracking (Armijo) line search, for
// at most maxIter steps or until a step moves less than tol. value and
// grad evaluate the objective and its gradient. It returns the final point
// and value. It is the harness's independent reference: the CGBD primal
// solves the same problems with the exact water-fill allocator.
func projectedGradient(value func([]float64) float64, grad func([]float64, []float64),
	x0, lo, hi []float64, maxIter int, tol float64) ([]float64, float64) {
	n := len(x0)
	x := make([]float64, n)
	for i := range x {
		x[i] = randx.Clip(x0[i], lo[i], hi[i])
	}
	g := make([]float64, n)
	cand := make([]float64, n)
	fx := value(x)
	step := 1.0
	for iter := 0; iter < maxIter; iter++ {
		grad(x, g)
		// Backtracking: find a step that improves the objective.
		improved := false
		for try := 0; try < 60; try++ {
			var move float64
			for i := range cand {
				cand[i] = randx.Clip(x[i]+step*g[i], lo[i], hi[i])
				dd := cand[i] - x[i]
				move += dd * dd
			}
			if move == 0 {
				return x, fx
			}
			fc := value(cand)
			if fc > fx+1e-18 {
				copy(x, cand)
				fx = fc
				improved = true
				if math.Sqrt(move) < tol {
					return x, fx
				}
				step *= 1.3 // expand after success
				break
			}
			step /= 2
			if step < 1e-30 {
				return x, fx
			}
		}
		if !improved {
			return x, fx
		}
	}
	return x, fx
}

func TestProjectedGradientQuadratic(t *testing.T) {
	// maximize −Σ (x_i − c_i)² over [0,1]³ with c = (0.3, −1, 2):
	// optimum is (0.3, 0, 1).
	c := []float64{0.3, -1, 2}
	value := func(x []float64) float64 {
		var s float64
		for i := range x {
			s -= (x[i] - c[i]) * (x[i] - c[i])
		}
		return s
	}
	grad := func(x, g []float64) {
		for i := range x {
			g[i] = -2 * (x[i] - c[i])
		}
	}
	x, _ := projectedGradient(value, grad,
		[]float64{0.5, 0.5, 0.5}, []float64{0, 0, 0}, []float64{1, 1, 1}, 2000, 1e-9)
	want := []float64{0.3, 0, 1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-5 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestWaterFillMatchesProjectedGradient(t *testing.T) {
	p := &optimize.WaterFillProblem{
		Phi:      func(o float64) float64 { return 2 * math.Sqrt(o) },
		PhiPrime: func(o float64) float64 { return 1 / math.Sqrt(o) },
		W:        []float64{0.1, 0.5, 0.05},
		Lo:       []float64{1, 1, 1},
		Hi:       []float64{100, 100, 100},
	}
	y, val, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	value := func(x []float64) float64 { return p.Value(x) }
	grad := func(x, g []float64) {
		var omega float64
		for _, v := range x {
			omega += v
		}
		dp := p.PhiPrime(omega)
		for i := range g {
			g[i] = dp - p.W[i]
		}
	}
	_, pgVal := projectedGradient(value, grad, []float64{50, 50, 50}, p.Lo, p.Hi, 20000, 1e-9)
	if val < pgVal-1e-4 {
		t.Errorf("water-fill value %v below projected-gradient value %v", val, pgVal)
	}
	// Spot-check stationarity: φ'(Ω) should sit between the costs of the
	// saturated-cheap and untouched-expensive variables.
	var omega float64
	for _, v := range y {
		omega += v
	}
	if dp := p.PhiPrime(omega); dp > 0.5 || dp < 0.05 {
		t.Errorf("φ'(Ω) = %v outside the active cost bracket", dp)
	}
}

// CheckEvaluator audits a DeltaEvaluator the caller claims is bound to p:
// every organization's bound payoff and `deviations` seeded random
// single-coordinate substitutions must match Config.Payoff bit-for-bit,
// alone and at either seat of the paired probe (beside the bound strategy,
// beside itself). True when clean; CheckIncremental binds its own evaluator.
func (a *Auditor) CheckEvaluator(cfg *game.Config, ev *game.DeltaEvaluator, p game.Profile, deviations int, seed int64, source string) bool {
	a.begin()
	ok := true
	same := func(got, want float64, i int, s game.Strategy, asked string) {
		if got != want {
			a.violate(Violation{
				Check: "evaluator-mismatch", Source: source,
				Detail: fmt.Sprintf("org %d at d=%.17g f=%.17g, %s: incremental %.17g, direct %.17g", i, s.D, s.F, asked, got, want),
				Delta:  math.Abs(got - want),
			})
			ok = false
		}
	}
	n := cfg.N()
	bound := make([]float64, n)
	for i := range bound {
		bound[i] = cfg.Payoff(i, p)
		same(ev.Payoff(i), bound[i], i, p[i], "bound")
	}
	src := randx.New(seed)
	work := p.Clone()
	for k := 0; k < deviations; k++ {
		i := src.Intn(n)
		levels := cfg.Orgs[i].CPULevels
		f := levels[src.Intn(len(levels))]
		lo, hi, feasible := cfg.FeasibleD(i, f)
		if !feasible {
			continue
		}
		s := game.Strategy{D: src.Uniform(lo, hi), F: f}
		work[i] = s
		want := cfg.Payoff(i, work)
		work[i] = p[i]
		same(ev.PayoffWith(i, s), want, i, s, "alone")
		for _, q := range [...]struct {
			a, b         game.Strategy
			wantA, wantB float64
		}{{s, p[i], want, bound[i]}, {p[i], s, bound[i], want}, {s, s, want, want}} {
			first, second := ev.PayoffWithPair(i, q.a, q.b)
			same(first, q.wantA, i, q.a, "first of a pair")
			same(second, q.wantB, i, q.b, "second of a pair")
		}
	}
	return ok
}

// CheckIncremental binds a fresh DeltaEvaluator to p and runs
// CheckEvaluator against it.
func (a *Auditor) CheckIncremental(cfg *game.Config, p game.Profile, deviations int, seed int64, source string) bool {
	ev := game.NewDeltaEvaluator(cfg)
	ev.Bind(p)
	return a.CheckEvaluator(cfg, ev, p, deviations, seed, source)
}
