package dbr

import (
	"sync"

	"tradefl/internal/game"
	"tradefl/internal/optimize"
)

// Engine is the incremental best-response engine: a DeltaEvaluator plus
// pooled scratch so a steady-state best-response scan performs zero heap
// allocations (asserted by TestBestResponseZeroAlloc). Results are
// byte-identical to a scan that evaluates every payoff from scratch with
// Config.Payoff and searches every candidate — the evaluator's exactness
// contract, the identical golden-section driver and the endpoint
// certificate's proof guarantee it (TestEngineBestResponseMatchesNaive,
// TestCertificateEquivalence). An Engine is single-goroutine.
type Engine struct {
	cfg   *game.Config
	ev    *game.DeltaEvaluator
	cands []candidate

	// eval is the golden-section objective, created once at engine
	// construction so the scan allocates no closure per candidate; the
	// candidate under evaluation is passed through evalOrg/evalF.
	eval    func(d float64) float64
	evalOrg int
	evalF   float64
}

// NewEngine builds an engine for cfg. Prefer the package-level pooled
// entry points (BestResponse, Solve) unless you are managing engine
// lifetime yourself.
func NewEngine(cfg *game.Config) *Engine {
	e := &Engine{}
	e.eval = func(d float64) float64 {
		return e.ev.PayoffWith(e.evalOrg, game.Strategy{D: d, F: e.evalF})
	}
	e.reset(cfg)
	return e
}

// enginePool recycles engines across solver invocations so the pooled
// entry points are allocation-free in steady state.
var enginePool = sync.Pool{New: func() any { return NewEngine(nil) }}

func acquireEngine(cfg *game.Config) *Engine {
	e := enginePool.Get().(*Engine)
	e.reset(cfg)
	return e
}

func releaseEngine(e *Engine) { enginePool.Put(e) }

// reset rebinds the engine to cfg, reusing scratch when possible. The
// evaluator's static caches are always re-derived from the config's current
// values: a pooled engine can come back for a config that was mutated in
// place between solves (campaign.drift does exactly that), so a pointer
// match proves nothing about the cached values. Reuse is allocation-level
// only — the O(N²) rebuild is the price of correctness and is negligible
// next to the scan it precedes.
func (e *Engine) reset(cfg *game.Config) {
	if cfg == nil {
		return
	}
	e.cfg = cfg
	if e.ev == nil {
		e.ev = game.NewDeltaEvaluator(cfg)
	} else {
		e.ev.Reset(cfg)
	}
	maxLevels := 0
	for i := range cfg.Orgs {
		if m := len(cfg.Orgs[i].CPULevels); m > maxLevels {
			maxLevels = m
		}
	}
	if cap(e.cands) < maxLevels {
		e.cands = make([]candidate, maxLevels)
	}
}

// Bind points the engine's evaluator at profile p (copied).
func (e *Engine) Bind(p game.Profile) { e.ev.Bind(p) }

// Update replaces the bound strategy of organization i in O(1).
func (e *Engine) Update(i int, s game.Strategy) { e.ev.Update(i, s) }

// Payoff returns organization i's payoff at the bound profile,
// byte-identical to Config.Payoff.
func (e *Engine) Payoff(i int) float64 { return e.ev.Payoff(i) }

// BestResponse computes organization i's best response against the bound
// profile, byte-identical to a from-scratch Config.Payoff scan of it, and
// allocation-free.
func (e *Engine) BestResponse(i int, dTol float64) (game.Strategy, float64, bool) {
	if dTol <= 0 {
		dTol = 1e-7
	}
	levels := e.cfg.Orgs[i].CPULevels
	mScans.Inc()
	mCandidates.Add(int64(len(levels)))
	// Every probe of this scan asks about organization i against the same
	// π₋ᵢ; focus once.
	e.ev.Focus(i)
	cands := e.cands[:0]
	var certified int64
	for _, f := range levels {
		c, cert := e.solveCandidate(i, f, dTol)
		cands = append(cands, c)
		if cert {
			certified++
		}
	}
	mCertified.Add(certified)
	return reduceCandidates(cands)
}

// minCertTol is the smallest search tolerance the endpoint certificate
// answers for. The bracket of GoldenSection lives in (0, 1], where one
// operation rounds by at most 2⁻⁵³; a probe is off its ideal place by at
// most 4 roundings and an inherited one by 4 more a step, so over the 4096
// steps the search allows itself the last bracket is wider than
// 0.618·tol − 2¹⁴·2⁻⁵³ and its midpoint further than tol/4 from both ends
// once 0.059·tol > 2¹³·2⁻⁵³, which 2⁻³⁵ already satisfies.
const minCertTol = 0x1p-32

// solveCandidate maximizes the payoff at a fixed CPU level: what
// optimize.GoldenSection returns over the feasible interval, and whether
// the endpoint certificate stood in for the search (DESIGN.md §10).
//
// The search returns the midpoint m of its last bracket unless lo or hi
// evaluates strictly higher, and m is at least 0.309·tol inside both ends.
// The payoff PayoffWith computes is within E of a concave C (ErrBound), so
// F(hi) − F(hi−h) > 4E with h = tol/4 gives C(hi) − C(hi−h) > 2E, hence
// C(x) < C(hi) − 2E and F(x) < F(hi) for every x ≤ hi−h: lo and m lose the
// search's closing comparisons to hi whatever path the bracket took. The
// same at lo. Everything else — no bound, a thin margin (an interior
// maximizer, a flat payoff), NaN, an interval the search would not split, a
// tolerance under minCertTol — is searched.
func (e *Engine) solveCandidate(i int, f, dTol float64) (candidate, bool) {
	lo, hi, feasible := e.cfg.FeasibleD(i, f)
	if !feasible {
		return candidate{}, false
	}
	e.evalOrg, e.evalF = i, f
	if dTol >= minCertTol && hi-lo > dTol {
		// lo is D_min, the low end ErrBound answers for.
		if bound, ok := e.ev.ErrBound(i, game.Strategy{D: hi, F: f}); ok {
			h, margin := dTol/4, 4*bound
			top, low := game.Strategy{D: hi, F: f}, game.Strategy{D: lo, F: f}
			if v, in := e.ev.PayoffWithPair(i, top, game.Strategy{D: hi - h, F: f}); v-in > margin {
				return candidate{s: top, val: v, feasible: true}, true
			}
			if v, in := e.ev.PayoffWithPair(i, low, game.Strategy{D: lo + h, F: f}); v-in > margin {
				return candidate{s: low, val: v, feasible: true}, true
			}
		}
	}
	d, val, _ := optimize.GoldenSection(e.eval, lo, hi, dTol)
	return candidate{s: game.Strategy{D: d, F: f}, val: val, feasible: true}, false
}
