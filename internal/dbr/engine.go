package dbr

import (
	"math"
	"sync"

	"tradefl/internal/game"
	"tradefl/internal/optimize"
)

// Engine is the incremental best-response engine: a DeltaEvaluator plus
// pooled scratch so a steady-state best-response scan performs zero heap
// allocations (asserted by TestBestResponseZeroAlloc). Each CPU level's
// candidate is the first-order condition's maximizer, one payoff probe a
// level, where the game has the closed form (DeltaEvaluator.FirstOrder);
// elsewhere it is optimize.GoldenSection's, with every payoff byte-identical
// to Config.Payoff (TestEngineBestResponseMatchesNaive). An Engine is
// single-goroutine.
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

	// The scan's probe of the bound strategy, when it made one (current).
	curS  game.Strategy
	cur   float64
	curOK bool

	// Work since the last flush: scans, candidates and payoff evaluations.
	scans, candidates, evals int64
}

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
		e.evals++
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
// profile, allocation-free: per CPU level the first-order condition's
// maximizer when the game has it, else the golden-section search to dTol,
// each probed once by PayoffWith; the levels reduce in order.
func (e *Engine) BestResponse(i int, dTol float64) (game.Strategy, float64, bool) {
	if dTol <= 0 {
		dTol = 1e-7
	}
	levels := e.cfg.Orgs[i].CPULevels
	e.scans++
	e.candidates += int64(len(levels))
	// Every probe of this scan asks about organization i against the same
	// π₋ᵢ; focus once.
	e.ev.Focus(i)
	e.curS, e.curOK = e.ev.Bound()[i], false
	cands := e.cands[:len(levels)]
	if e.ev.FirstOrder(i) {
		for k, f := range levels {
			_, _, ok := e.ev.Interval(i, k)
			cands[k] = candidate{s: game.Strategy{D: e.ev.Maximizer(k), F: f}, feasible: ok}
		}
		e.probe(i, cands)
	} else {
		for k, f := range levels {
			cands[k] = e.search(i, k, f, dTol)
		}
	}
	return reduceCandidates(cands)
}

// probe evaluates the feasible candidates' payoffs, two to a
// PayoffWithPair walk.
func (e *Engine) probe(i int, cands []candidate) {
	var first *candidate
	for k := range cands {
		c := &cands[k]
		if !c.feasible {
			continue
		}
		e.evals++
		if first == nil {
			first = c
			continue
		}
		first.val, c.val = e.ev.PayoffWithPair(i, first.s, c.s)
		e.saw(first.s, first.val)
		e.saw(c.s, c.val)
		first = nil
	}
	if first != nil {
		first.val = e.ev.PayoffWith(i, first.s)
		e.saw(first.s, first.val)
	}
}

// search maximizes the payoff at organization i's k-th CPU level f with
// optimize.GoldenSection over the feasible interval.
func (e *Engine) search(i, k int, f, dTol float64) candidate {
	lo, hi, feasible := e.ev.Interval(i, k)
	if !feasible {
		return candidate{}
	}
	e.evalOrg, e.evalF = i, f
	d, val, _ := optimize.GoldenSection(e.eval, lo, hi, dTol)
	s := game.Strategy{D: d, F: f}
	e.saw(s, val)
	return candidate{s: s, val: val, feasible: true}
}

// current returns organization i's payoff at its bound strategy after a
// scan of i: the scan's own probe of that strategy — PayoffWith's bits —
// or, when it made none, one payoff walk.
func (e *Engine) current(i int) float64 {
	if e.curOK {
		return e.cur
	}
	e.evals++
	return e.Payoff(i)
}

// saw records a probe of the scan: v is PayoffWith(scanned org, s).
func (e *Engine) saw(s game.Strategy, v float64) {
	if math.Float64bits(s.D) == math.Float64bits(e.curS.D) && math.Float64bits(s.F) == math.Float64bits(e.curS.F) {
		e.cur, e.curOK = v, true
	}
}

// flush adds the work since the last flush to the dbr counters: once per
// solve or ring node run, not per scan.
func (e *Engine) flush() {
	mScans.Add(e.scans)
	mCandidates.Add(e.candidates)
	mEvals.Add(e.evals)
	e.scans, e.candidates, e.evals = 0, 0, 0
}
