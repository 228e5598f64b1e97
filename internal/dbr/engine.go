package dbr

import (
	"math"
	"sync"
	"sync/atomic"

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

	// The scan's probe of the bound strategy, when it made one (current),
	// and whether the scan has built the exact certificate bound.
	curS  game.Strategy
	cur   float64
	curOK bool
	built bool
}

// exactBounds counts the scans that built the exact certificate bound
// (engine tests and benchmarks read it; it is not a /metrics series).
var exactBounds atomic.Int64

// NewEngine builds an engine that reads cfg, a config Validate accepts, in
// place: its rows are derived by DeltaEvaluator.Reset, and cfg must stay
// unmodified for the engine's lifetime. A solve and a ring node load a
// game.Instance instead.
func NewEngine(cfg *game.Config) *Engine {
	e := newEngine()
	e.ev.Reset(cfg)
	e.setConfig(cfg)
	return e
}

// newEngine returns an engine bound to no game.
func newEngine() *Engine {
	e := &Engine{ev: new(game.DeltaEvaluator)}
	e.eval = func(d float64) float64 {
		return e.ev.PayoffWith(e.evalOrg, game.Strategy{D: d, F: e.evalF})
	}
	return e
}

// enginePool recycles engines across solver invocations so the pooled
// entry points are allocation-free in steady state.
var enginePool = sync.Pool{New: func() any { return newEngine() }}

func acquireEngine(in *game.Instance) *Engine {
	e := enginePool.Get().(*Engine)
	e.load(in)
	return e
}

func releaseEngine(e *Engine) { enginePool.Put(e) }

// load rebinds the engine to the instance in, reusing scratch when
// possible. The evaluator reads the instance's rows in place: they were
// derived when the instance was checked, and the instance's config cannot
// change after that (the ext-campaign drift builds a new instance each
// epoch), so a load derives nothing.
func (e *Engine) load(in *game.Instance) {
	e.ev.Load(in)
	e.setConfig(in.Config())
}

// setConfig points the engine at cfg and sizes the candidate scratch.
func (e *Engine) setConfig(cfg *game.Config) {
	e.cfg = cfg
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
	e.curS, e.curOK, e.built = e.ev.Bound()[i], false, false
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

// current returns organization i's payoff at its bound strategy after a
// scan of i: the scan's own probe of that strategy — an endpoint pair's
// first value or a search's result, PayoffWith's bits either way — or,
// when it made none, one payoff walk.
func (e *Engine) current(i int) float64 {
	if e.curOK {
		return e.cur
	}
	return e.Payoff(i)
}

// saw records a probe of the scan: v is PayoffWith(scanned org, s).
func (e *Engine) saw(s game.Strategy, v float64) {
	if math.Float64bits(s.D) == math.Float64bits(e.curS.D) && math.Float64bits(s.F) == math.Float64bits(e.curS.F) {
		e.cur, e.curOK = v, true
	}
}

// exactBound is the certificate's second tier, ErrBound, built at most
// once per scan.
func (e *Engine) exactBound(i int, s game.Strategy) (float64, bool) {
	if !e.built {
		e.built = true
		exactBounds.Add(1)
	}
	return e.ev.ErrBound(i, s)
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
// same at lo. E is first the per-solve CoarseErrBound; a positive gap it
// leaves open asks for ErrBound's exact E, which is never larger, so each
// pair is decided as by ErrBound alone. Everything else — no bound, a thin
// margin (an interior maximizer, a flat payoff), NaN, an interval the
// search would not split, a tolerance under minCertTol — is searched.
func (e *Engine) solveCandidate(i int, f, dTol float64) (candidate, bool) {
	lo, hi, feasible := e.cfg.FeasibleD(i, f)
	if !feasible {
		return candidate{}, false
	}
	e.evalOrg, e.evalF = i, f
	if dTol >= minCertTol && hi-lo > dTol {
		// lo is D_min, the low end both tiers answer for.
		top, h := game.Strategy{D: hi, F: f}, dTol/4
		bound, ok := e.ev.CoarseErrBound(i, top)
		exact := !ok
		if exact {
			bound, ok = e.exactBound(i, top)
		}
		ends := [2][2]game.Strategy{{top, {D: hi - h, F: f}}, {{D: lo, F: f}, {D: lo + h, F: f}}}
		for _, end := range ends {
			if !ok {
				break
			}
			v, in := e.ev.PayoffWithPair(i, end[0], end[1])
			e.saw(end[0], v)
			gap := v - in
			if !exact && gap > 0 && !(gap > 4*bound) {
				exact = true
				bound, ok = e.exactBound(i, top)
			}
			if ok && gap > 4*bound {
				return candidate{s: end[0], val: v, feasible: true}, true
			}
		}
	}
	d, val, _ := optimize.GoldenSection(e.eval, lo, hi, dTol)
	e.saw(game.Strategy{D: d, F: f}, val)
	return candidate{s: game.Strategy{D: d, F: f}, val: val, feasible: true}, false
}
