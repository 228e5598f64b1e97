package gbd

import "math"

// This file holds the cached evaluation state of the CGBD solver:
// per-(organization, CPU-level) constant caches, the persistent
// incrementally-grown master cut tables, and the incumbent seeds of the
// master search. Every cached quantity is produced by the floating-point
// expression a from-scratch evaluation would use, and seeding only drops
// what cannot change the answer, so solver output is byte-identical to
// recomputing everything on every call (DESIGN.md §10; pinned by the
// goldens in golden_test.go).

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
	s.wfY, s.wfW, s.wfLo, s.wfHi = a.floats(n), a.floats(n), a.floats(n), a.floats(n)
	s.wfOrder = a.ints(n)
}

// addOptCut tabulates a freshly generated optimality cut into the
// persistent master tables.
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
	t := s.tables
	t.opt = append(t.opt, terms)
	t.optMax = append(t.optMax, maxs)
	t.optConst = append(t.optConst, s.optCutConst(c))
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
	}
	return seed
}
