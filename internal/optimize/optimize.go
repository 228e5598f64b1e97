// Package optimize provides the numerical routines TradeFL's solvers build
// on: golden-section search and derivative bisection for one-dimensional
// concave maximization, and an exact water-filling allocator for the
// separable resource-allocation structure of the CGBD primal problem.
//
// All routines are deterministic and allocation-light: best-response
// dynamics maximizes with GoldenSection, and the CGBD primal solves with
// WaterFillProblem, which bisects with BisectDecreasing.
package optimize

import (
	"errors"
	"fmt"
	"math"
)

// invPhi is 1/φ where φ is the golden ratio.
const invPhi = 0.6180339887498949

// maxBracketIter caps the shrink loops of GoldenSection and
// BisectDecreasing. A well-posed call never gets near it — golden-section
// over the full double range down to a 1e-300 tolerance needs under 3000
// iterations — but a tolerance below the interval's floating-point
// resolution would otherwise spin forever because the bracket stops
// shrinking once its endpoints are adjacent floats.
const maxBracketIter = 4096

// ErrMaxIterations is returned when a bracketing search hits its iteration
// cap before the interval shrank below the tolerance — in practice a
// degenerate (sub-ulp) tolerance. The accompanying point values are still
// the best found and remain usable.
var ErrMaxIterations = errors.New("optimize: iteration cap reached before convergence (degenerate tolerance?)")

// GoldenSection maximizes a unimodal (e.g. concave) function f over
// [lo, hi] to within tol of the maximizer and returns (x*, f(x*)).
// It degrades gracefully: for a non-unimodal f it still returns the best
// point probed. tol must be positive. A non-nil error reports the
// iteration cap (ErrMaxIterations); x and fx are still the best found.
func GoldenSection(f func(float64) float64, lo, hi, tol float64) (x, fx float64, err error) {
	if hi < lo {
		lo, hi = hi, lo
	}
	if tol <= 0 {
		tol = 1e-9
	}
	a, b := lo, hi
	c := b - invPhi*(b-a)
	d := a + invPhi*(b-a)
	fc, fd := f(c), f(d)
	iter := 0
	for b-a > tol {
		if iter++; iter > maxBracketIter {
			err = ErrMaxIterations
			break
		}
		if fc >= fd {
			b, d, fd = d, c, fc
			c = b - invPhi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + invPhi*(b-a)
			fd = f(d)
		}
	}
	x = (a + b) / 2
	fx = f(x)
	// Keep the endpoints honest for functions maximized at the boundary.
	if flo := f(lo); flo > fx {
		x, fx = lo, flo
	}
	if fhi := f(hi); fhi > fx {
		x, fx = hi, fhi
	}
	return x, fx, err
}

// BisectDecreasing finds a root of a nonincreasing function g on [lo, hi]
// by bisection. It returns lo if g(lo) ≤ 0 and hi if g(hi) ≥ 0 (the root is
// outside the interval); this is the behaviour concave maximization wants
// when the derivative has constant sign on the box. A non-nil error
// reports the iteration cap (ErrMaxIterations); the returned point is
// still the midpoint of the best bracket found.
func BisectDecreasing(g func(float64) float64, lo, hi, tol float64) (float64, error) {
	if g(lo) <= 0 {
		return lo, nil
	}
	if g(hi) >= 0 {
		return hi, nil
	}
	iter := 0
	for hi-lo > tol {
		if iter++; iter > maxBracketIter {
			return (lo + hi) / 2, ErrMaxIterations
		}
		mid := (lo + hi) / 2
		if g(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// WaterFillProblem is the separable concave allocation
//
//	maximize  φ(Σ_i y_i) − Σ_i w_i·y_i   s.t.  y_i ∈ [Lo_i, Hi_i],
//
// where φ is concave and nondecreasing with derivative PhiPrime. This is
// exactly the structure of the CGBD primal problem in d for fixed f (the
// potential's accuracy term couples organizations only through Ω = Σ y_i,
// and the energy/redistribution terms are linear in each d_i).
type WaterFillProblem struct {
	// Phi is φ(Ω); PhiPrime its derivative (nonincreasing, ≥ 0).
	Phi      func(float64) float64
	PhiPrime func(float64) float64
	// W is the per-unit linear cost of each variable.
	W []float64
	// Lo, Hi are the box bounds (Lo_i ≤ Hi_i required).
	Lo, Hi []float64
	// Tol is the bisection tolerance on Ω (0 = 1e-9·max(1, ΣHi); negative
	// is rejected).
	Tol float64
}

// Solve computes the exact maximizer by greedy marginal-cost water-filling:
// variables are filled in ascending cost order while φ'(Ω) exceeds their
// cost. Runs in O(n log n + n·log(1/tol)). Returns the allocation and the
// objective value.
func (p *WaterFillProblem) Solve() ([]float64, float64, error) {
	return p.SolveInto(nil, nil)
}

// SolveInto is Solve with caller-provided scratch: the allocation is written
// into y and the cost ordering into order when their capacity suffices
// (fresh slices are allocated otherwise). The returned slice aliases y, so a
// caller reusing scratch across solves must consume or copy the result
// before the next call. Repeated solves with adequate scratch allocate
// nothing.
func (p *WaterFillProblem) SolveInto(y []float64, order []int) ([]float64, float64, error) {
	n := len(p.W)
	if len(p.Lo) != n || len(p.Hi) != n {
		return nil, 0, errors.New("optimize: water-fill dimension mismatch")
	}
	if p.Tol < 0 {
		return nil, 0, fmt.Errorf("optimize: negative water-fill Tol %v", p.Tol)
	}
	for i := 0; i < n; i++ {
		if p.Hi[i] < p.Lo[i] {
			return nil, 0, errors.New("optimize: water-fill bounds empty")
		}
	}
	if cap(y) < n {
		y = make([]float64, n)
	}
	y = y[:n]
	omega := 0.0
	var hiSum float64
	for i := 0; i < n; i++ {
		y[i] = p.Lo[i]
		omega += p.Lo[i]
		hiSum += p.Hi[i]
	}
	tol := p.Tol
	if tol == 0 {
		tol = 1e-9 * math.Max(1, hiSum)
	}
	// Ascending cost order.
	if cap(order) < n {
		order = make([]int, n)
	}
	order = order[:n]
	for i := range order {
		order[i] = i
	}
	sortByCost(order, p.W)
	for _, i := range order {
		room := p.Hi[i] - p.Lo[i]
		if room <= 0 {
			continue
		}
		w := p.W[i]
		// Fill while marginal gain φ'(Ω) exceeds marginal cost w.
		if p.PhiPrime(omega) <= w {
			// Costs are ascending and φ' is nonincreasing: nothing later
			// can be profitable either, but a later variable can have a
			// *negative* cost only if sorting put it earlier, so we may
			// simply stop.
			break
		}
		if p.PhiPrime(omega+room) >= w {
			y[i] = p.Hi[i]
			omega += room
			continue
		}
		// Interior: find Δ with φ'(Ω+Δ) = w.
		delta, err := BisectDecreasing(func(t float64) float64 {
			return p.PhiPrime(omega+t) - w
		}, 0, room, tol)
		if err != nil {
			return nil, 0, err
		}
		y[i] = p.Lo[i] + delta
		omega += delta
		break
	}
	return y, p.Value(y), nil
}

// Value evaluates the water-fill objective at y.
func (p *WaterFillProblem) Value(y []float64) float64 {
	var omega, cost float64
	for i, v := range y {
		omega += v
		cost += p.W[i] * v
	}
	return p.Phi(omega) - cost
}

// sortByCost sorts the index slice ascending by W (insertion sort; n is
// small — the organization count).
func sortByCost(order []int, w []float64) {
	for i := 1; i < len(order); i++ {
		k := order[i]
		j := i - 1
		for j >= 0 && w[order[j]] > w[k] {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = k
	}
}
