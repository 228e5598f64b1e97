package gbd

import (
	"math"
	"slices"
)

// This file holds the cached evaluation state of the CGBD solver:
// per-(organization, CPU-level) constant caches, the persistent
// incrementally-grown master cut tables with dominated-cut eviction, and
// the incumbent seeds of the master search. Every cached quantity is
// produced by the floating-point expression a from-scratch evaluation
// would use, and eviction and seeding only drop what cannot change the
// answer, so solver output is byte-identical to recomputing everything on
// every call (DESIGN.md §10; pinned by the goldens in golden_test.go).

// primalResult memoizes one solved primal subproblem (19), keyed by the
// f-grid index vector. The d/u slices are shared with the optimality cuts
// generated from them and are never mutated after insertion.
type primalResult struct {
	fIdx     []int
	d, u     []float64
	feasible bool
}

// primalMemoCap bounds the memo; far above any real run (MaxIter defaults
// to 50, so at most 50 distinct f vectors occur), it exists so adversarial
// option settings cannot grow it — or its linear lookup — without bound.
// Eviction is FIFO.
const primalMemoCap = 512

// dominationMargin is the strictness margin of dominated-cut eviction: cut
// B is dropped only when the separable bound proves A(f) ≤ B(f) − margin
// for every grid point f. The margin absorbs the floating-point error of
// the bound itself (≈ N·ulp of the term scale, orders of magnitude below
// 1e-6 at the potential's O(1e3) scale), so eviction never removes a cut
// that could tie the min at any grid point — which is what keeps the
// master's φ values bit-identical to keeping every cut.
const dominationMargin = 1e-6

// initCaches precomputes the per-(org, level) constants every primal solve
// and cut tabulation reuses (linearCostPerOmega, fOnlyTerm, FeasibleD,
// MaxDataFraction), and empties the persistent structures. Storage comes
// from the freshly reset solve arena, so any shape costs the same: no
// allocation once the arena has grown to it.
func (s *solver) initCaches() {
	cfg := s.cfg
	n := cfg.N()
	a := s.solve
	s.levels = a.rows(n)
	s.lvlCost, s.lvlLoY, s.lvlHiY = a.rows(n), a.rows(n), a.rows(n)
	s.lvlFOnly, s.lvlCapD = a.rows(n), a.rows(n)
	if cap(s.lvlOK) < n {
		s.lvlOK = make([][]bool, n)
	}
	s.lvlOK = s.lvlOK[:n]
	for i := 0; i < n; i++ {
		o := cfg.Orgs[i]
		levels := o.CPULevels
		m := len(levels)
		s.levels[i] = levels
		s.lvlCost[i], s.lvlLoY[i], s.lvlHiY[i] = a.floats(m), a.floats(m), a.floats(m)
		s.lvlFOnly[i], s.lvlCapD[i] = a.floats(m), a.floats(m)
		s.lvlOK[i] = a.bools(m)
		for k, fi := range levels {
			dlo, dhi, ok := cfg.FeasibleD(i, fi)
			s.lvlOK[i][k] = ok
			s.lvlLoY[i][k] = dlo * s.scale[i]
			s.lvlHiY[i][k] = dhi * s.scale[i]
			s.lvlCost[i][k] = s.linearCostPerOmega(i, fi)
			s.lvlFOnly[i][k] = s.fOnlyTerm(i, fi)
			s.lvlCapD[i][k] = o.Comm.MaxDataFraction(o.DataBits, fi, cfg.Deadline)
		}
	}
	t := s.tables
	t.levels = s.levels
	t.opt, t.optMax, t.optConst = t.opt[:0], t.optMax[:0], t.optConst[:0]
	t.feas, t.feasMin = t.feas[:0], t.feasMin[:0]
	s.memo = s.memo[:0]
	s.wfY, s.wfW, s.wfLo, s.wfHi = a.floats(n), a.floats(n), a.floats(n), a.floats(n)
	s.wfOrder = a.ints(n)
}

// cutDominates reports whether cut A sits strictly below cut B across the
// whole f grid: max_f [A(f) − B(f)] ≤ Σ_i max_k (A_ik − B_ik) + cA − cB,
// and A dominates when that separable bound is ≤ −dominationMargin. A
// dominated cut never attains the min-over-cuts alone, so dropping it
// leaves every φ value bit-identical.
func cutDominates(aTerms [][]float64, aConst float64, bTerms [][]float64, bConst float64) bool {
	bound := aConst - bConst
	for i := range aTerms {
		best := math.Inf(-1)
		for k := range aTerms[i] {
			if d := aTerms[i][k] - bTerms[i][k]; d > best {
				best = d
			}
		}
		bound += best
	}
	return bound <= -dominationMargin
}

// addOptCut tabulates a freshly generated optimality cut into the
// persistent master tables and evicts strictly dominated cuts (either
// direction).
func (s *solver) addOptCut(c optimalityCut) {
	n := s.cfg.N()
	terms := s.solve.rows(n)
	maxs := s.solve.floats(n)
	for i := 0; i < n; i++ {
		row := s.solve.floats(len(s.levels[i]))
		best := math.Inf(-1)
		for k := range s.levels[i] {
			row[k] = s.optCutTerm(c, i, k)
			if row[k] > best {
				best = row[k]
			}
		}
		terms[i] = row
		maxs[i] = best
	}
	konst := s.optCutConst(c)
	t := s.tables
	// An existing cut strictly below the new one everywhere already implies
	// the constraint the new cut would add — skip it.
	for v := range t.opt {
		if cutDominates(t.opt[v], t.optConst[v], terms, konst) {
			mCutsEvicted.Inc()
			return
		}
	}
	// Drop existing cuts the new cut strictly dominates.
	w := 0
	for v := range t.opt {
		if cutDominates(terms, konst, t.opt[v], t.optConst[v]) {
			mCutsEvicted.Inc()
			continue
		}
		t.opt[w], t.optMax[w], t.optConst[w] = t.opt[v], t.optMax[v], t.optConst[v]
		w++
	}
	t.opt = append(t.opt[:w], terms)
	t.optMax = append(t.optMax[:w], maxs)
	t.optConst = append(t.optConst[:w], konst)
	mCutTabIncr.Inc()
}

// addFeasCut tabulates a feasibility cut into the persistent master tables.
func (s *solver) addFeasCut(c feasibilityCut) {
	n := s.cfg.N()
	terms := s.solve.rows(n)
	mins := s.solve.floats(n)
	for i := 0; i < n; i++ {
		row := s.solve.floats(len(s.levels[i]))
		best := math.Inf(1)
		for k, fi := range s.levels[i] {
			row[k] = s.feasCutTerm(c, i, fi)
			if row[k] < best {
				best = row[k]
			}
		}
		terms[i] = row
		mins[i] = best
	}
	t := s.tables
	t.feas = append(t.feas, terms)
	t.feasMin = append(t.feasMin, mins)
	mCutTabIncr.Inc()
}

// masterSeed returns the incumbent-derived φ seed of the master search: a
// hair below the lower bound, so grid points that cannot beat the
// incumbent are pruned immediately. Exactness: a suppressed point has
// φ < LB, so an unseeded master would return ub = φ < lb and Algorithm 1
// would declare convergence on the incumbent — exactly what the seeded
// master's "nothing found" path does; Profile, Potential, iteration count
// and the LowerBounds trace are identical, only the final UpperBounds
// entry may read lb instead of the (converged-anyway) φ.
func (s *solver) masterSeed() float64 {
	if math.IsInf(s.lb, -1) {
		return math.Inf(-1)
	}
	mMasterSeeded.Inc()
	return s.lb - (math.Abs(s.lb)*1e-9 + 1e-9)
}

// masterWarmSeed returns the strongest exactness-preserving incumbent seed
// for a master search: the lower-bound seed (masterSeed), raised to a hair
// below φ(prevIdx) when the previous master's argmax is still feasible
// under the current cut tables — the CGBD warm start. Exactness of the warm
// part: y = φ(prevIdx) is *attained* by a grid point, so seeding strictly
// below y cannot change the search result at all. The incumbent stays below
// the true maximum until the first maximizer is visited (an earlier point
// with φ equal to the maximum would itself be the first maximizer), every
// subtree containing it has optimistic bound ≥ max > incumbent and is never
// pruned, and the leaf records it via the same strict > update — so the
// returned argmax, φ, and hence the whole UpperBounds trace are
// byte-identical to the unseeded search. Only the lb-derived floor retains
// masterSeed's final-UB-entry caveat.
func (s *solver) masterWarmSeed(t *cutTables) float64 {
	seed := s.masterSeed()
	if len(s.prevIdx) != s.cfg.N() || !s.gridFeasible(t, s.prevIdx) {
		return seed
	}
	y := s.gridPhi(t, s.prevIdx)
	if math.IsInf(y, 1) {
		return seed
	}
	if warm := y - (math.Abs(y)*1e-9 + 1e-9); warm > seed {
		seed = warm
		mMasterWarm.Inc()
	}
	return seed
}

// solvePrimal maximizes U(·, f) over the box of feasible d, f given by its
// grid indices fIdx too. It returns the maximizer, the deadline-constraint
// Lagrange multipliers u (zero where the deadline does not bind), and
// whether the primal was feasible. On an infeasible primal it returns
// d = DMin everywhere (the feasibility-check minimizer) and u = nil.
// Results are memoized per f vector: the slices are shared — callers must
// not mutate them — and, like every d, u and λ the solver hands out, live
// in the solve arena. Hits occur when the master revisits an f, typically
// near convergence. The memo is a list searched linearly: a run holds one
// entry per master iteration, a handful, so comparing N indices per entry
// beats hashing them and needs no key allocation.
func (s *solver) solvePrimal(f []float64, fIdx []int) (d, u []float64, feasible bool) {
	for _, r := range s.memo {
		if slices.Equal(r.fIdx, fIdx) {
			mPrimalHits.Inc()
			return r.d, r.u, r.feasible
		}
	}
	mPrimalMisses.Inc()
	d, u, feasible = s.solvePrimalFresh(f, fIdx)
	if len(s.memo) >= primalMemoCap {
		s.memo = s.memo[:copy(s.memo, s.memo[1:])]
		mPrimalEvicts.Inc()
	}
	key := s.solve.ints(len(fIdx))
	copy(key, fIdx)
	s.memo = append(s.memo, primalResult{fIdx: key, d: d, u: u, feasible: feasible})
	return d, u, feasible
}
