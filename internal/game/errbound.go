package game

import "math"

// ErrBound returns E such that, for a config Validate accepts,
//
//	|PayoffWith(i, {d, s.F}) − C(d)| ≤ E   for every float d ∈ [D_min, s.D],
//
// where C is a concave function of d: Eq. (11) in real arithmetic over the
// evaluator's cached operands — (1−α)·z_i·P(Ω) + α·p_i·P(β·d·scale_i) plus
// terms linear in d, concave because P is (Eq. (5)) and z_i > 0. ok is false
// when no such statement holds: a model without the certificate methods, an
// Ω argument under the model's ConcaveFrom (the kink of a guard at Ω ≈ 0),
// s.D > 1, a weight that rounds to z_i < 0, or magnitudes so large or small
// that overflow or underflow could reach the payoff.
//
// E = (4N+32)·2⁻⁵³·M, with M the sum of the magnitudes of the payoff's
// addends at their largest over the interval — p_i·((1−α)·S + α·S_loc),
// 2·dmg_i·S, ϖ_e·E_i, Σ_j g_j·x_i + Σ_j g_j·x_j, with the models'
// RoundingScale S for |P| — plus P′·Ω for each P, which carries the error of
// the Ω folds into P. DESIGN.md §10 derives the factor: no addend needs more
// than N+10 roundings or an Ω argument further than (N+2)·2⁻⁵³·Ω from the
// exact one, so the bound has more than a factor 2 in hand everywhere. It
// moves the focus to i like any query; the half that depends on i alone is
// built once per focus in O(N), the rest is O(1).
func (ev *DeltaEvaluator) ErrBound(i int, s Strategy) (float64, bool) {
	if ev.focus != i {
		ev.Focus(i)
	}
	if !ev.bounded {
		ev.bounded = true
		ev.boundMag = ev.focusMagnitude(i)
	}
	return ev.finish(ev.boundMag+ev.energyWeight*ev.energy(i, s)+ev.rowG[i]*ev.contribution(i, s), s)
}

// CoarseErrBound is ErrBound's per-solve tier: a bound that is never below
// ErrBound's in floats, read in O(1) off the rows the check walk built,
// without a focus. It refuses wherever ErrBound would, and also for a
// personalized game and while a bound strategy lies outside
// d ∈ [D_min, 1], f ≤ the top CPU level. DESIGN.md §10 gives the
// dominance argument.
func (ev *DeltaEvaluator) CoarseErrBound(i int, s Strategy) (float64, bool) {
	e, gx := ev.energyWeight*ev.energy(i, s), ev.rowG[i]*ev.contribution(i, s)
	// ErrBound's M is at least e + gx, its focus half being ≥ 0: past this
	// guard ErrBound's lower magnitude guard passes too.
	if ev.outside > 0 || !(e+gx > 0x1p-500) {
		return 0, false
	}
	return ev.finish(ev.coarseMag[i]+e+gx, s)
}

// finish is E = (4N+32)·2⁻⁵³·mag past the guards both tiers share.
// Validate caps every operand at MaxMagnitude, so products of the six
// factors an addend has stay far inside the float range; an M this far
// from 1 would still mean an intermediate may have left it. A refusal by
// a focus half arrives here as NaN.
func (ev *DeltaEvaluator) finish(mag float64, s Strategy) (float64, bool) {
	if !(s.D <= 1 && mag > 0x1p-500 && mag < 0x1p500) {
		return 0, false
	}
	return ev.roundoff() * mag, true
}

// roundoff is the factor (4N+32)·2⁻⁵³ of ErrBound.
func (ev *DeltaEvaluator) roundoff() float64 { return roundoff(len(ev.xs)) }

// roundoff is (4n+32)·2⁻⁵³.
func roundoff(n int) float64 {
	return (4*float64(n) + 32) * 0x1p-53
}

// focusMagnitude returns the part of ErrBound's M that does not depend on
// the strategy asked about — NaN when ErrBound must refuse whatever the
// strategy. Every Ω the payoff hands the model for a d ∈ [D_min, 1], and
// the exact value each stands for, lies in [low, top]; S is largest at an
// end of that interval and P′ at its low end.
func (ev *DeltaEvaluator) focusMagnitude(i int) float64 {
	sh := ev.shape
	own := ev.prof[i] * ev.oneMinusAlpha
	if sh == nil || !(own >= ev.dmgCoef[i]) {
		return math.NaN()
	}
	var rest, g2 float64
	for j, t := range ev.terms {
		if j != i {
			rest += t
			g2 += ev.g[j] * ev.xs[j]
		}
	}
	scale := ev.scale[i]
	top := rest + scale
	low := rest - ev.roundoff()*top
	from := sh.ConcaveFrom()
	if !(low > 0 && low >= from) {
		return math.NaN()
	}
	spread := max(sh.RoundingScale(low), sh.RoundingScale(top)) + ev.acc.Derivative(low)*top
	mag := (own+2*ev.dmgCoef[i])*spread + g2
	if ev.personal {
		locLow := ev.boost * ev.cfg.DMin * scale * (1 - 0x1p-50)
		locTop := ev.boost * scale
		if !(locLow > 0 && locLow >= from) {
			return math.NaN()
		}
		spread = max(sh.RoundingScale(locLow), sh.RoundingScale(locTop)) + ev.acc.Derivative(locLow)*locTop
		mag += ev.prof[i] * ev.alpha * spread
	}
	return mag
}

// inBox reports whether organization j's strategy s lies where the
// per-solve bound holds: d ∈ [D_min, 1] and f at most its top CPU level.
func (ev *DeltaEvaluator) inBox(j int, s Strategy) bool {
	return s.D >= ev.cfg.DMin && s.D <= 1 && s.F <= ev.cfg.Orgs[j].topLevel()
}

// topLevel is the organization's fastest CPU level, NaN when it has none.
func (o *Organization) topLevel() float64 {
	if len(o.CPULevels) == 0 {
		return math.NaN()
	}
	return o.CPULevels[len(o.CPULevels)-1]
}
