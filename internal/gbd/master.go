package gbd

import (
	"math"
	"slices"
)

// cutTables holds, for every cut, the per-organization per-CPU-level term
// values, so grid enumeration touches no float math beyond additions. Cuts
// are tabulated once, when they are added (cache.go).
type cutTables struct {
	levels [][]float64 // levels[i] = CPU grid of organization i
	// opt[v][i][k]: term of optimality cut v for org i at level k.
	opt [][][]float64
	// optConst[v]: f-independent part of optimality cut v.
	optConst []float64
	// feas[w][i][k]: term of feasibility cut w for org i at level k.
	feas [][][]float64
	// optMax[v][i]: max over k of opt[v][i][k] (for pruning bounds).
	optMax [][]float64
	// feasMin[w][i]: min over k of feas[w][i][k].
	feasMin [][]float64
}

// masterTraversal enumerates the full f grid — the paper's traversal
// method, Θ(m^N) grid points — as a depth-first enumeration whose per-depth
// partial sums (traversalSearch.assign) build each cut sum as parent + term
// in organization order, the left-to-right fold gridPhi performs, so each
// grid point costs O(cuts) additions rather than O(N·cuts). No bound
// pruning is applied beyond the incumbent seed, which suppresses only
// points the algorithm would converge past anyway.
func (s *solver) masterTraversal() ([]int, []float64, float64, bool) {
	t := s.tables
	n := s.cfg.N()
	ps := newTraversalSearch(t, n, s.master)
	ps.bestPhi = s.masterWarmSeed(t)
	ps.dfsExhaustive(0)
	if ps.bestIdx == nil {
		return nil, nil, 0, false
	}
	s.prevIdx = ps.bestIdx
	return ps.bestIdx, s.gridF(t, ps.bestIdx), ps.bestPhi, true
}

// gridFeasible checks all feasibility cuts at a grid point.
func (s *solver) gridFeasible(t *cutTables, idx []int) bool {
	for w := range t.feas {
		var sum float64
		for i, k := range idx {
			sum += t.feas[w][i][k]
		}
		if sum > 1e-12 {
			return false
		}
	}
	return true
}

// gridPhi evaluates min over optimality cuts at a grid point; +Inf with no
// cuts (the master is then unbounded and any feasible point works).
func (s *solver) gridPhi(t *cutTables, idx []int) float64 {
	if len(t.opt) == 0 {
		return math.Inf(1)
	}
	phi := math.Inf(1)
	for v := range t.opt {
		sum := t.optConst[v]
		for i, k := range idx {
			sum += t.opt[v][i][k]
		}
		if sum < phi {
			phi = sum
		}
	}
	return phi
}

func (s *solver) gridF(t *cutTables, idx []int) []float64 {
	f := s.solve.floats(len(idx))
	for i, k := range idx {
		f[i] = t.levels[i][k]
	}
	return f
}

// boundSuffixes precomputes suffix sums of per-organization extrema so the
// depth-first search completes partial sums to optimistic bounds in O(1).
type boundSuffixes struct {
	// opt[v][i] = Σ_{j≥i} optMax[v][j]; feas[w][i] = Σ_{j≥i} feasMin[w][j].
	opt, feas [][]float64
}

// build fills b for the current tables, taking its rows from a.
func (b *boundSuffixes) build(t *cutTables, n int, a *arena) {
	b.opt, b.feas = a.rows(len(t.opt)), a.rows(len(t.feas))
	for v := range t.opt {
		suf := a.floats(n + 1)
		for i := n - 1; i >= 0; i-- {
			suf[i] = suf[i+1] + t.optMax[v][i]
		}
		b.opt[v] = suf
	}
	for w := range t.feas {
		suf := a.floats(n + 1)
		for i := n - 1; i >= 0; i-- {
			suf[i] = suf[i+1] + t.feasMin[w][i]
		}
		b.feas[w] = suf
	}
}

// traversalSearch is the depth-first enumeration state of masterTraversal.
//
// Partial sums are kept per depth (opt[d][v] is the sum after assigning
// organizations < d) and each level is computed fresh as parent + term —
// never by subtracting on backtrack — so the value at a node is a pure
// function of the path to it: the left-to-right fold gridPhi performs (an
// add/subtract scheme would leak floating-point residue from sibling
// branches into later sums).
type traversalSearch struct {
	t *cutTables
	n int

	idx []int
	// opt[d][v], feas[d][w]: cut partial sums after assigning orgs < d.
	opt, feas [][]float64
	bestPhi   float64
	bestIdx   []int
}

func newTraversalSearch(t *cutTables, n int, a *arena) *traversalSearch {
	ps := &traversalSearch{
		t:       t,
		n:       n,
		idx:     a.ints(n),
		opt:     a.rows(n + 1),
		feas:    a.rows(n + 1),
		bestPhi: math.Inf(-1),
	}
	for d := 0; d <= n; d++ {
		ps.opt[d] = a.floats(len(t.opt))
		ps.feas[d] = a.floats(len(t.feas))
	}
	copy(ps.opt[0], t.optConst)
	return ps
}

// assign sets organization depth to level k, deriving the next depth's
// partial sums from the current ones.
func (ps *traversalSearch) assign(depth, k int) {
	ps.idx[depth] = k
	for v, cur := range ps.opt[depth] {
		ps.opt[depth+1][v] = cur + ps.t.opt[v][depth][k]
	}
	for w, cur := range ps.feas[depth] {
		ps.feas[depth+1][w] = cur + ps.t.feas[w][depth][k]
	}
}

// incTables is the pruned search's layout of the master cut tables:
// depth-major and cut-contiguous. terms[d][k*c+v] holds the depth-d term of
// (reordered) optimality cut v at level k, so evaluating every cut at one
// (depth, level) is a single sequential scan instead of c pointer chases
// through [][][]float64; osuf[d][v] is the matching suffix-of-maxima bound
// completion, contiguous per depth. Cuts are permuted tightest-first (by
// root bound): φ and every node bound are min-over-cuts of per-cut values
// that do not depend on cut order, so the permutation changes no output
// bit, but it lets the fused child loop reach its floor — and the early
// prune exit — after fewer cuts.
type incTables struct {
	c, fc int
	width []int // width[d] = number of CPU levels of organization d
	// terms[d][k*c+v]: optimality-cut terms; osuf[d][v] = Σ_{j≥d} optMax.
	terms, osuf [][]float64
	// fterms[d][k*fc+w]: feasibility-cut terms; fsuf[d][w] = Σ_{j≥d} feasMin.
	fterms, fsuf [][]float64
	konst        []float64 // konst[v]: reordered optConst
}

// build lays the current cut tables out in it, taking every slice from a.
func (it *incTables) build(t *cutTables, suf *boundSuffixes, n int, a *arena) {
	c, fc := len(t.opt), len(t.feas)
	it.c, it.fc = c, fc
	it.width = a.ints(n)
	it.terms, it.osuf = a.rows(n), a.rows(n+1)
	it.fterms, it.fsuf = a.rows(n), a.rows(n+1)
	it.konst = a.floats(c)
	// Tightest root bound first, ties by cut index: a total order, so the
	// permutation does not depend on the sorting algorithm.
	bound := a.floats(c)
	ord := a.ints(c)
	for v := range ord {
		ord[v] = v
		bound[v] = t.optConst[v] + suf.opt[v][0]
	}
	slices.SortFunc(ord, func(x, y int) int {
		switch {
		case bound[x] < bound[y]:
			return -1
		case bound[x] > bound[y]:
			return 1
		}
		return x - y
	})
	for p, v := range ord {
		it.konst[p] = t.optConst[v]
	}
	for d := 0; d < n; d++ {
		m := len(t.levels[d])
		it.width[d] = m
		row := a.floats(m * c)
		for k := 0; k < m; k++ {
			for p, v := range ord {
				row[k*c+p] = t.opt[v][d][k]
			}
		}
		it.terms[d] = row
		frow := a.floats(m * fc)
		for k := 0; k < m; k++ {
			for w := 0; w < fc; w++ {
				frow[k*fc+w] = t.feas[w][d][k]
			}
		}
		it.fterms[d] = frow
	}
	for d := 0; d <= n; d++ {
		os := a.floats(c)
		for p, v := range ord {
			os[p] = suf.opt[v][d]
		}
		it.osuf[d] = os
		fs := a.floats(fc)
		for w := 0; w < fc; w++ {
			fs[w] = suf.feas[w][d]
		}
		it.fsuf[d] = fs
	}
}

// incSearch is the fused depth-first branch-and-bound of masterPruned over
// the flat incTables layout. Partial sums are kept per depth, each child's
// computed fresh as parent + term (see traversalSearch), and per child the
// next partial sums AND the optimistic bound — that sum + the suffix
// maximum — come out of one sequential pass. Pruning is two-fold:
// feasibility cuts that cannot return below zero kill the subtree, and the
// optimistic completion of min-over-cuts prunes against the incumbent with
// ≤, which keeps the first maximizer in enumeration order. Pruned children
// never recurse. The bound loop exits as soon as the running min drops to
// the incumbent: the running min only decreases, so the prune decision
// equals the full-min decision.
type incSearch struct {
	t *incTables
	n int

	idx       []int
	opt, feas [][]float64 // partial sums after assigning orgs < d
	bestPhi   float64
	bestIdx   []int
}

// init readies is for one search over it, taking its partial-sum rows from
// a. bestIdx starts empty; the first improving leaf fills it, so a search
// that found nothing leaves it empty.
func (is *incSearch) init(it *incTables, n int, a *arena) {
	*is = incSearch{
		t:       it,
		n:       n,
		idx:     a.ints(n),
		opt:     a.rows(n + 1),
		feas:    a.rows(n + 1),
		bestPhi: math.Inf(-1),
	}
	for d := 0; d <= n; d++ {
		is.opt[d] = a.floats(it.c)
		is.feas[d] = a.floats(it.fc)
	}
	copy(is.opt[0], it.konst)
}

// run performs the entry checks of the search root (feasibility suffix,
// optimistic bound vs the incumbent) and then explores the tree. Interior
// nodes skip run: their checks already happened in the parent's fused
// child loop.
func (is *incSearch) run() {
	for w := 0; w < is.t.fc; w++ {
		if is.feas[0][w]+is.t.fsuf[0][w] > 1e-12 {
			return
		}
	}
	if is.t.c > 0 {
		bound := math.Inf(1)
		for v := 0; v < is.t.c; v++ {
			if b := is.opt[0][v] + is.t.osuf[0][v]; b < bound {
				bound = b
			}
		}
		if bound <= is.bestPhi {
			return
		}
	}
	is.descend(0)
}

// descend dispatches subtree exploration to the register-specialized
// kernel for the current optimality-cut count when one exists (no
// feasibility cuts, 2 or 3 cuts — the common mid-solve shapes), else to the
// generic fused loop. The kernels carry the per-cut partial sums in
// function arguments instead of the per-depth slices, eliminating all
// partial-sum loads and stores on the hot path; every addition, min fold,
// comparison, and tie-break is the same operation on the same operands in
// the same order as the generic loop, so the search result is unchanged
// bit for bit. (The kernels fold the full min where the generic loop may
// exit early; the running min only decreases, so every prune and update
// decision is identical either way.)
func (is *incSearch) descend(depth int) {
	if is.t.fc == 0 {
		cur := is.opt[depth]
		switch is.t.c {
		case 2:
			is.children2(depth, cur[0], cur[1])
			return
		case 3:
			is.children3(depth, cur[0], cur[1], cur[2])
			return
		}
	}
	is.children(depth)
}

func (is *incSearch) children2(depth int, s0, s1 float64) {
	terms := is.t.terms[depth]
	best := is.bestPhi
	if depth == is.n-1 {
		ki := 0
		for k := 0; k+1 < len(terms); k += 2 {
			phi := s0 + terms[k]
			if p := s1 + terms[k+1]; p < phi {
				phi = p
			}
			if phi > best {
				best = phi
				is.bestPhi = phi
				is.idx[depth] = ki
				is.bestIdx = append(is.bestIdx[:0], is.idx...)
			}
			ki++
		}
		return
	}
	o := is.t.osuf[depth+1]
	o0, o1 := o[0], o[1]
	ki := 0
	for k := 0; k+1 < len(terms); k += 2 {
		t0 := s0 + terms[k]
		t1 := s1 + terms[k+1]
		bound := t0 + o0
		if b := t1 + o1; b < bound {
			bound = b
		}
		if bound <= best {
			ki++
			continue
		}
		is.idx[depth] = ki
		is.children2(depth+1, t0, t1)
		best = is.bestPhi
		ki++
	}
}

func (is *incSearch) children3(depth int, s0, s1, s2 float64) {
	terms := is.t.terms[depth]
	best := is.bestPhi
	if depth == is.n-1 {
		ki := 0
		for k := 0; k+2 < len(terms); k += 3 {
			phi := s0 + terms[k]
			if p := s1 + terms[k+1]; p < phi {
				phi = p
			}
			if p := s2 + terms[k+2]; p < phi {
				phi = p
			}
			if phi > best {
				best = phi
				is.bestPhi = phi
				is.idx[depth] = ki
				is.bestIdx = append(is.bestIdx[:0], is.idx...)
			}
			ki++
		}
		return
	}
	o := is.t.osuf[depth+1]
	o0, o1, o2 := o[0], o[1], o[2]
	ki := 0
	for k := 0; k+2 < len(terms); k += 3 {
		t0 := s0 + terms[k]
		t1 := s1 + terms[k+1]
		t2 := s2 + terms[k+2]
		bound := t0 + o0
		if b := t1 + o1; b < bound {
			bound = b
		}
		if b := t2 + o2; b < bound {
			bound = b
		}
		if bound <= best {
			ki++
			continue
		}
		is.idx[depth] = ki
		is.children3(depth+1, t0, t1, t2)
		best = is.bestPhi
		ki++
	}
}

// children is the fused hot loop: for each level of organization depth it
// derives the child's partial sums and optimistic bound in one sequential
// pass over the cut-contiguous tables, pruning without recursing. At the
// last organization the children are leaves and the same pass folds φ =
// min-over-cuts directly, exiting early once φ cannot beat the incumbent
// (the running min only decreases, so no winning leaf is ever skipped).
func (is *incSearch) children(depth int) {
	c, fc := is.t.c, is.t.fc
	width := is.t.width[depth]
	cur := is.opt[depth]
	next := is.opt[depth+1]
	terms := is.t.terms[depth]
	leaf := depth == is.n-1
	var osuf []float64
	if !leaf {
		osuf = is.t.osuf[depth+1]
	}
	// best shadows is.bestPhi so the hot loop compares against a register;
	// slice-element stores would otherwise force a reload of the field on
	// every iteration. It is synced at leaf updates and after recursion.
	best := is.bestPhi
	for k := 0; k < width; k++ {
		if fc > 0 {
			fcur, fnext := is.feas[depth], is.feas[depth+1]
			fterms := is.t.fterms[depth]
			fsuf := is.t.fsuf[depth+1]
			infeasible := false
			for w := 0; w < fc; w++ {
				s := fcur[w] + fterms[k*fc+w]
				fnext[w] = s
				if s+fsuf[w] > 1e-12 {
					infeasible = true
					break
				}
			}
			if infeasible {
				continue
			}
		}
		row := terms[k*c : k*c+c]
		if leaf {
			phi := math.Inf(1)
			for v := 0; v < c; v++ {
				if s := cur[v] + row[v]; s < phi {
					phi = s
					if phi <= best {
						break
					}
				}
			}
			if phi > best {
				best = phi
				is.bestPhi = phi
				is.idx[depth] = k
				is.bestIdx = append(is.bestIdx[:0], is.idx...)
			}
			continue
		}
		bound := math.Inf(1)
		pruned := false
		for v := 0; v < c; v++ {
			s := cur[v] + row[v]
			next[v] = s
			if b := s + osuf[v]; b < bound {
				bound = b
				if bound <= best {
					pruned = true
					break
				}
			}
		}
		if pruned {
			continue
		}
		is.idx[depth] = k
		is.children(depth + 1)
		best = is.bestPhi
	}
}

// dfsExhaustive visits every grid point (no bound pruning, no suffix
// tables), evaluating feasibility and φ from the per-depth partial sums at
// the leaves. The leaf fold mirrors gridPhi's min-over-cuts exactly; the
// incumbent comparison exits a leaf early, with ≤, only when its final φ
// provably cannot win: the running min only decreases, and a tie never
// displaces the first maximizer.
func (ps *traversalSearch) dfsExhaustive(depth int) {
	if depth == ps.n {
		for _, cur := range ps.feas[depth] {
			if cur > 1e-12 {
				return
			}
		}
		phi := math.Inf(1)
		for _, cur := range ps.opt[depth] {
			if cur < phi {
				phi = cur
				if phi <= ps.bestPhi {
					return
				}
			}
		}
		if phi > ps.bestPhi {
			ps.bestPhi = phi
			ps.bestIdx = append(ps.bestIdx[:0], ps.idx...)
		}
		return
	}
	for k := range ps.t.levels[depth] {
		ps.assign(depth, k)
		ps.dfsExhaustive(depth + 1)
	}
}

// masterPruned runs exact depth-first search with bound pruning: incSearch
// over the flat incTables layout, starting from the incumbent seed
// (masterWarmSeed): the previous master's argmax re-scored under the
// current tables when still feasible (exact — the seed sits strictly below
// an attained φ, see masterWarmSeed), else a hair below the lower bound
// (masterSeed), so subtrees that cannot beat the incumbent are cut
// immediately while the returned grid point stays byte-identical to an
// unseeded search's.
//
// Suffixes, tables and the search's partial sums are rebuilt in the master
// arena; the argmax goes into solve-arena memory, because it (the next f,
// and prevIdx) outlives the master call.
func (s *solver) masterPruned() ([]int, []float64, float64, bool) {
	t := s.tables
	n := s.cfg.N()
	s.suf.build(t, n, s.master)
	it := &s.it
	it.build(t, &s.suf, n, s.master)
	is := &s.is
	is.init(it, n, s.master)
	is.bestIdx = s.solve.ints(n)[:0]
	is.bestPhi = s.masterWarmSeed(t)
	is.run()
	if len(is.bestIdx) == 0 {
		return nil, nil, 0, false
	}
	s.prevIdx = is.bestIdx
	return is.bestIdx, s.gridF(t, is.bestIdx), is.bestPhi, true
}
