// Package gbd implements CGBD, the centralized Generalized-Benders-
// Decomposition algorithm of TradeFL (Algorithm 1, Sec. V-B).
//
// The joint problem (18) maximizes the weighted potential U(d, f) over the
// continuous data fractions d and the discrete CPU frequencies f, subject
// to the per-organization deadline constraints C^(3). Following the paper,
// it is decomposed into:
//
//   - a primal problem (19): for fixed f, maximize U(d, f) over d — convex
//     (Lemma 1). For fixed f the deadline becomes a box cap on d_i, so the
//     primal has the exact water-filling structure solved by
//     optimize.WaterFillProblem (strictly better than the δ-approximate
//     interior-point method the paper invokes);
//   - a feasibility-check problem (21) for f grids whose slowest levels
//     cannot fit even D_min within the deadline;
//   - a master problem (23) over the discrete f grid, constrained by
//     optimality cuts L*(d_v, f, u_v) and feasibility cuts L_*(d_v, f, λ_v),
//     solved by traversal (as in the paper) or by pruned depth-first search.
//
// Sign convention: the paper states (18) as minimization of −U; we keep the
// maximization form, so the primal values form the lower bound LB and the
// master optimum forms the upper bound UB, with convergence at UB−LB ≤ ε.
package gbd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"tradefl/internal/game"
	"tradefl/internal/obs"
	"tradefl/internal/optimize"
)

// MasterSolver selects the algorithm used for the master problem (23).
type MasterSolver int

const (
	// MasterTraversal exhaustively enumerates the f grid (the paper's
	// traversal method).
	MasterTraversal MasterSolver = iota + 1
	// MasterPruned runs a depth-first traversal with bound pruning; exact,
	// usually orders of magnitude faster on larger grids.
	MasterPruned
)

// DefaultEpsilon is the UB−LB convergence tolerance ε of a solve that
// leaves Options.Epsilon zero.
const DefaultEpsilon = 1e-6

// Options configures Solve.
type Options struct {
	// Epsilon is the UB−LB convergence tolerance ε (default DefaultEpsilon).
	Epsilon float64
	// MaxIter is K, the iteration cap (default 50).
	MaxIter int
	// Master selects the master-problem solver (default MasterPruned).
	Master MasterSolver
	// Workers is accepted and ignored: the master search runs on the
	// calling goroutine (the sharded search it once sized was 3× slower
	// than serial at the N ≤ 6 plan=auto routes here). bench/traced.go
	// still names the field; it goes with the next change allowed to edit
	// bench/.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Epsilon == 0 {
		o.Epsilon = DefaultEpsilon
	}
	if o.MaxIter == 0 {
		o.MaxIter = 50
	}
	if o.Master == 0 {
		o.Master = MasterPruned
	}
	return o
}

// Result reports the solution and the convergence trace of Algorithm 1.
type Result struct {
	// Profile is the best (d*, f*) found; by Theorem 1's potential-game
	// argument it is a (δ+ε)-approximate Nash equilibrium.
	Profile game.Profile
	// Potential is U(Profile).
	Potential float64
	// LowerBounds[k], UpperBounds[k] trace LB/UB per iteration.
	LowerBounds, UpperBounds []float64
	// PotentialTrace records the primal value of each iteration (Fig. 4).
	PotentialTrace []float64
	// Iterations is the number of completed iterations.
	Iterations int
	// Converged reports UB−LB ≤ ε at exit.
	Converged bool
}

// optimalityCut stores the data of one feasible primal iteration. The
// paper's cut L*(d_v, f, u_v) evaluated at the fixed point d_v (Eq. 20) is
// not a valid upper bound on max_d U(d, f) for f ≠ f_v, which would break
// Lemma 3's optimality guarantee. We therefore use its concavity
// linearization: P(Ω) ≤ P(Ω̂_v) + P'(Ω̂_v)·(Ω − Ω̂_v) turns
// max_{d∈X} L(d, f, u_v) into a separable-in-f_i expression that (a) upper
// bounds the primal value at every f and (b) coincides with
// U(d_v, f_v) + u_v·G(d_v, f_v) = U(d_v, f_v) at the generating point, so
// GBD's finite ε-convergence to the global optimum is restored
// (DESIGN.md §2 records this as a clarification of the paper).
type optimalityCut struct {
	u []float64 // deadline multipliers u_v
	// omegaHat = Ω(d_v); pHat = P(Ω̂); pSlope = P'(Ω̂).
	omegaHat, pHat, pSlope float64
}

// feasibilityCut stores (d_w, λ_w) of an infeasible iteration; it requires
// Σ_i λ_i·G_i(d_w,i, f_i) ≤ 0.
type feasibilityCut struct {
	d      []float64
	lambda []float64
}

// solver carries the state of one run of Algorithm 1. It is a pooled,
// reusable workspace (workspace.go): everything below that is sized by the
// instance is carved from one of its two arenas or kept as capacity across
// solves.
type solver struct {
	cfg  *game.Config
	opts Options
	// solve lives from one rebind to the next: per-level caches, cut rows
	// and maxima, primal d/u, water-fill scratch, the current f vector.
	// master lives for one master call: bound suffixes, the flat incTables,
	// the search's partial sums.
	solve, master *arena
	// rhoBar[i] = ρ̄_i, zs[i] = z_i, scale[i] = Ω unit per d_i.
	rhoBar, zs, scale []float64
	// lbs/ubs/incumbents accumulate the run's traces and trial/best hold the
	// profile under evaluation and the incumbent; the Result gets copies.
	lbs, ubs, incumbents []float64
	trial, best          game.Profile

	// Cached evaluation state, populated by initCaches. levels aliases the
	// per-org CPU grids; lvl* cache per-(org, level) constants; tables are
	// the persistent master cut tables; lb mirrors the incumbent lower bound
	// for master seeding; wf* are water-fill scratch.
	levels                                     [][]float64
	lvlCost, lvlLoY, lvlHiY, lvlFOnly, lvlCapD [][]float64
	lvlOK                                      [][]bool
	tables                                     *cutTables
	lb                                         float64
	wfY, wfW, wfLo, wfHi                       []float64
	wfOrder                                    []int
	// prevIdx is the previous master solve's argmax grid point; the next
	// master search warm-starts its incumbent from this point's φ under the
	// current cut set (masterWarmSeed).
	prevIdx []int
	// suf, it and is are the pruned master's per-call state,
	// rebuilt in place from the master arena on every call.
	suf boundSuffixes
	it  incTables
	is  incSearch
}

// ErrInfeasible is returned when no CPU grid point admits a feasible d.
var ErrInfeasible = errors.New("gbd: problem infeasible for every f in the grid")

// validateFor rejects configs Algorithm 1 cannot solve.
func validateFor(cfg *game.Config) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("gbd: %w", err)
	}
	if cfg.Personal.Alpha > 0 {
		// The personalization extension adds a concave per-organization
		// term to the potential, breaking the linear water-fill structure
		// of the primal; solve personalized games with DBR instead.
		return errors.New("gbd: personalization extension not supported; use DBR")
	}
	return nil
}

// Solve runs Algorithm 1 on the coopetition game and returns the
// near-optimal joint strategy profile.
func Solve(cfg *game.Config, opts Options) (*Result, error) {
	return SolveCtx(context.Background(), cfg, opts)
}

// SolveCtx is Solve under a caller context: the solve's span joins the
// trace carried by ctx (a fleet batch threads its batch trace through
// here), and a cancelled ctx stops the solve before its next master
// iteration with an error wrapping ctx's. A context that stays live has no
// effect on the computed result.
func SolveCtx(ctx context.Context, cfg *game.Config, opts Options) (*Result, error) {
	if err := validateFor(cfg); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	s := solvers.Get().(*solver)
	defer s.release()
	s.rebind(cfg, opts)
	return s.run(ctx)
}

// run executes Algorithm 1 on a solver bound (rebind) to a validated
// config and normalized options.
func (s *solver) run(ctx context.Context) (*Result, error) {
	cfg, opts := s.cfg, s.opts
	mRuns.Inc()
	solveStart := time.Now()
	_, root := obs.Span(ctx, "gbd.solve")
	defer mSolveSec.ObserveSince(solveStart)
	defer root.End()
	n := cfg.N()

	// Initial f^(0): the fastest level of every organization, which is
	// feasible whenever any grid point is.
	f := s.solve.floats(n)
	fIdx := s.solve.ints(n)
	for i, o := range cfg.Orgs {
		fIdx[i] = len(o.CPULevels) - 1
		f[i] = o.CPULevels[fIdx[i]]
	}

	res := &Result{}
	lb := math.Inf(-1)
	ub := math.Inf(1)
	found := false
	for k := 0; k < opts.MaxIter; k++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("gbd: %w", err)
		}
		res.Iterations = k + 1
		mIterations.Inc()
		primalStart := time.Now()
		d, u, feasible := s.solvePrimal(f, fIdx)
		mPrimalSec.ObserveSince(primalStart)
		if feasible {
			for i := range s.trial {
				s.trial[i] = game.Strategy{D: d[i], F: f[i]}
			}
			val := cfg.Potential(s.trial)
			if val > lb {
				lb = val
				s.trial, s.best = s.best, s.trial
				found = true
			}
			s.lb = lb
			// The trace reports the incumbent (best-so-far) potential, the
			// quantity Fig. 4 plots for the centralized algorithm.
			s.incumbents = append(s.incumbents, lb)
			var omegaHat float64
			for i, di := range d {
				omegaHat += di * s.scale[i]
			}
			s.addOptCut(optimalityCut{
				u:        u,
				omegaHat: omegaHat,
				pHat:     cfg.Accuracy.Value(omegaHat),
				pSlope:   cfg.Accuracy.Derivative(omegaHat),
			})
			mOptCuts.Inc()
		} else {
			feasStart := time.Now()
			lambda := s.solveFeasibility(f)
			mFeasSec.ObserveSince(feasStart)
			s.addFeasCut(feasibilityCut{d: d, lambda: lambda})
			mFeasCuts.Inc()
			if len(s.incumbents) > 0 {
				s.incumbents = append(s.incumbents, s.incumbents[len(s.incumbents)-1])
			} else {
				s.incumbents = append(s.incumbents, math.Inf(-1))
			}
		}
		s.lbs = append(s.lbs, lb)

		masterStart := time.Now()
		fIdxNext, fNext, phi, ok := s.solveMaster()
		mMasterSec.ObserveSince(masterStart)
		if !ok {
			if !found {
				return nil, ErrInfeasible
			}
			// Every f is cut off: the incumbent is optimal.
			ub = lb
			s.ubs = append(s.ubs, ub)
			res.Converged = true
			break
		}
		if phi < ub {
			ub = phi
		}
		s.ubs = append(s.ubs, ub)
		if ub-lb <= opts.Epsilon {
			res.Converged = true
			break
		}
		f, fIdx = fNext, fIdxNext
	}
	if !found {
		return nil, ErrInfeasible
	}
	// The Result owns its memory: one exact-size backing array for the three
	// traces (capacity-clipped, so appending to one cannot reach the next)
	// and a copy of the incumbent profile.
	traces := make([]float64, 0, len(s.lbs)+len(s.ubs)+len(s.incumbents))
	traces = append(append(append(traces, s.lbs...), s.ubs...), s.incumbents...)
	a, b := len(s.lbs), len(s.lbs)+len(s.ubs)
	res.LowerBounds, res.UpperBounds, res.PotentialTrace = traces[:a:a], traces[a:b:b], traces[b:]
	res.Profile = append(game.Profile(nil), s.best...)
	res.Potential = lb
	publish(res, ub-lb)
	audit(cfg, res, opts)
	return res, nil
}

// publish records the run's convergence distributions on /metrics; the
// per-iteration series stay in the Result.
func publish(res *Result, gap float64) {
	if res.Converged {
		mConverged.Inc()
	}
	mGapHist.Observe(gap)
	mItersHist.Observe(float64(res.Iterations))
}

// linearCostPerOmega returns w_i: the linear coefficient of the potential
// in y_i = scale_i·d_i at frequency fi, negated so the water-fill objective
// φ(Σy) − Σ w·y equals U up to f-only constants:
//
//	U = P(Ω) − Σ_i [ϖ_e·κ·f_i²·η_i·s_i − γ·ρ̄_i·s_i]·d_i/z_i + const(f).
func (s *solver) linearCostPerOmega(i int, fi float64) float64 {
	o := s.cfg.Orgs[i]
	// Energy is paid on the raw data volume; redistribution credit accrues
	// on the quality-weighted volume.
	perD := (s.cfg.EnergyWeight*o.Comm.Kappa*fi*fi*o.Comm.CyclesPerBit*o.DataBits -
		s.cfg.Gamma*s.rhoBar[i]*s.cfg.DataCredit(i)) / s.zs[i]
	return perD / s.scale[i]
}

// fOnlyTerm returns the part of U that depends on f_i but not d_i:
// γ·ρ̄_i·λ·f_i / z_i.
func (s *solver) fOnlyTerm(i int, fi float64) float64 {
	return s.cfg.Gamma * s.rhoBar[i] * s.cfg.Lambda * fi / s.zs[i]
}

// solvePrimal maximizes U(·, f) over the box of feasible d by water-filling,
// reading the box bounds and linear costs of every f_i from the per-level
// caches at the grid indices fIdx. It returns the maximizer, the
// deadline-constraint Lagrange multipliers u (zero where the deadline does
// not bind), and whether the primal was feasible. On an infeasible primal
// it returns d = DMin everywhere (the feasibility-check minimizer) and
// u = nil. Like every d, u and λ the solver hands out, the slices live in
// the solve arena.
func (s *solver) solvePrimal(f []float64, fIdx []int) (d, u []float64, feasible bool) {
	cfg := s.cfg
	n := cfg.N()
	d = s.solve.floats(n)
	lo, hi, w := s.wfLo, s.wfHi, s.wfW
	for i := 0; i < n; i++ {
		k := fIdx[i]
		if !s.lvlOK[i][k] {
			for j := range d {
				d[j] = cfg.DMin
			}
			return d, nil, false
		}
		lo[i] = s.lvlLoY[i][k]
		hi[i] = s.lvlHiY[i][k]
		w[i] = s.lvlCost[i][k]
	}
	prob := &optimize.WaterFillProblem{
		Phi:      cfg.Accuracy.Value,
		PhiPrime: cfg.Accuracy.Derivative,
		W:        w,
		Lo:       lo,
		Hi:       hi,
	}
	y, _, err := prob.SolveInto(s.wfY, s.wfOrder)
	if err != nil {
		// Bounds were validated above; treat a solver error as infeasible.
		for j := range d {
			d[j] = cfg.DMin
		}
		return d, nil, false
	}
	var omega float64
	for _, v := range y {
		omega += v
	}
	u = s.solve.floats(n)
	for i := 0; i < n; i++ {
		d[i] = y[i] / s.scale[i]
		// KKT multiplier of the deadline constraint: positive only when the
		// deadline cap binds (d_i at cap < 1) with positive potential
		// gradient. dU/dd_i = [P'(Ω)·scale_i − w_i·scale_i];
		// dG_i/dd_i = η_i·s_i/f_i.
		o := cfg.Orgs[i]
		capD := s.lvlCapD[i][fIdx[i]]
		atCap := capD < 1 && math.Abs(d[i]-capD) <= 1e-9*math.Max(1, capD)
		if !atCap {
			continue
		}
		gradU := (cfg.Accuracy.Derivative(omega) - w[i]) * s.scale[i]
		if gradU <= 0 {
			continue
		}
		gradG := o.Comm.CyclesPerBit * o.DataBits / f[i]
		u[i] = gradU / gradG
	}
	return d, u, true
}

// solveFeasibility solves the feasibility-check problem (21) for an
// infeasible f: min ζ s.t. G_i(d, f) ≤ ζ with d free in [DMin, 1]. The
// minimizing d is DMin (training time grows with d), and the multiplier
// vector λ is the indicator of the deadline-violating organizations,
// normalized to sum to one — the subgradient certificate that at least one
// G_i stays positive for every admissible d.
func (s *solver) solveFeasibility(f []float64) (lambda []float64) {
	cfg := s.cfg
	n := cfg.N()
	lambda = s.solve.floats(n)
	var count float64
	for i := 0; i < n; i++ {
		o := cfg.Orgs[i]
		if o.Comm.DeadlineSlack(cfg.DMin, o.DataBits, f[i], cfg.Deadline) < 0 {
			lambda[i] = 1
			count++
		}
	}
	if count > 0 {
		for i := range lambda {
			lambda[i] /= count
		}
	}
	return lambda
}

// deadlineG returns G_i(d, f_i) = T1 + η·d·s/f + T3 − τ.
func (s *solver) deadlineG(i int, d, fi float64) float64 {
	o := s.cfg.Orgs[i]
	return -o.Comm.DeadlineSlack(d, o.DataBits, fi, s.cfg.Deadline)
}

// optCutTerm is the contribution of organization i at CPU level k
// (f_i = levels[i][k]) to a linearized optimality cut:
//
//	max_{d∈[DMin,1]} [(P'(Ω̂) − w_i(f_i))·scale_i − u_i·slope_i(f_i)]·d
//	  + γ·ρ̄_i·λ·f_i/z_i − u_i·(T1 + T3 − τ) ,
//
// where slope_i(f) = η_i·s_i/f is dG_i/dd_i and the Lagrangian of the
// maximization primal is L = U − u·G (weak duality: −u·G ≥ 0 on the
// feasible set). The inner maximum of the linear term sits at one of the
// box endpoints. The two f_i-only subexpressions, w_i(f_i)
// (linearCostPerOmega) and γ·ρ̄_i·λ·f_i/z_i (fOnlyTerm), come from the
// level caches.
func (s *solver) optCutTerm(c optimalityCut, i, k int) float64 {
	fi := s.levels[i][k]
	o := s.cfg.Orgs[i]
	coef := (c.pSlope-s.lvlCost[i][k])*s.scale[i] -
		c.u[i]*o.Comm.CyclesPerBit*o.DataBits/fi
	inner := coef * s.cfg.DMin
	if v := coef * 1; v > inner {
		inner = v
	}
	base := o.Comm.DownloadTime + o.Comm.UploadTime - s.cfg.Deadline
	return inner + s.lvlFOnly[i][k] - c.u[i]*base
}

// optCutConst is the f-independent part of a linearized optimality cut:
// P(Ω̂) − P'(Ω̂)·Ω̂.
func (s *solver) optCutConst(c optimalityCut) float64 {
	return c.pHat - c.pSlope*c.omegaHat
}

// feasCutTerm is the f_i-dependent contribution to a feasibility cut.
func (s *solver) feasCutTerm(c feasibilityCut, i int, fi float64) float64 {
	if c.lambda[i] == 0 {
		return 0
	}
	return c.lambda[i] * s.deadlineG(i, c.d[i], fi)
}

// solveMaster maximizes φ over the discrete f grid subject to
// φ ≤ L*(d_v, f, u_v) for all optimality cuts and L_*(d_w, f, λ_w) ≤ 0 for
// all feasibility cuts. It returns the maximizer's grid indices and f
// values. ok is false when every grid point is excluded — or, because the
// search starts from an incumbent seed (masterSeed), when no grid point can
// beat the current lower bound, in which case Algorithm 1 converges on the
// incumbent exactly as an unseeded master would have made it.
func (s *solver) solveMaster() (fIdx []int, f []float64, phi float64, ok bool) {
	s.master.reset()
	switch s.opts.Master {
	case MasterTraversal:
		return s.masterTraversal()
	default:
		return s.masterPruned()
	}
}
