// Package accuracy implements the data-accuracy function family of TradeFL.
//
// The paper's central practicality claim (Sec. III-C) is that the mechanism
// does not rely on any exact functional form of the data-accuracy function
// P(d_i, d_-i) = A(0) − A(d_i, d_-i); it only requires the first/second
// derivative property of Eq. (5):
//
//	∂P/∂d_i ≥ 0,   ∂²P/∂d_i² ≤ 0,
//
// i.e. P is nondecreasing and concave in the total contributed data
// Ω = Σ_i d_i·s_i. Every consumer in this repository is therefore programmed
// against the Model interface. Concrete models provided:
//
//   - SqrtLoss: the general accuracy-loss bound of footnote 7,
//     A(Ω) = 1/√(Ω·G) + 1/G, used for all paper simulations.
//   - PowerLaw: P(Ω) = a·Ω^b with 0 < b < 1, a classic learning curve.
//   - LogSaturation: P(Ω) = a·log(1 + Ω/c), slow saturation.
//   - Empirical: a concave piecewise-linear interpolant fitted to measured
//     (Ω, accuracy) points, e.g. from the FL simulator (Fig. 2).
package accuracy

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Model is a data-accuracy function P(Ω): the accuracy performance of the
// global model as a function of the total contributed data Ω (in the same
// unit the caller uses consistently, bits or samples). Implementations must
// satisfy Eq. (5): Value is nondecreasing and concave on Ω ≥ 0, and
// Derivative is its first derivative (nonnegative, nonincreasing).
type Model interface {
	// Value returns P(Ω) ≥ 0 for Ω ≥ 0.
	Value(omega float64) float64
	// Derivative returns dP/dΩ at Ω.
	Derivative(omega float64) float64
	// Name identifies the model in experiment output.
	Name() string
}

// Certified is what every model of this package offers beyond Model, and
// what a caller needs before it may trust the sign of a difference of
// Values (the DBR endpoint certificate, DESIGN.md §10). Each implementation
// states where its constant comes from, writing u for 2⁻⁵³.
type Certified interface {
	// ConcaveFrom returns the smallest Ω from which Value really is
	// nondecreasing and concave: the guards at Ω ≈ 0 (SqrtLoss.OmegaFloor,
	// Empirical's flat extrapolation below its first point) put a convex
	// kink there. +Inf means nowhere (parameters outside the model's range).
	ConcaveFrom() float64
	// RoundingScale returns S(ω) ≥ |P(ω)|, for ω ≥ ConcaveFrom, with
	// |Value(ω′) − P(ω)| ≤ 8u·S(ω) for every float ω′ within 4u·ω of ω,
	// where P is an exactly concave nondecreasing function (the model's
	// formula in real arithmetic). Over an interval S is largest at one of
	// the ends.
	RoundingScale(omega float64) float64
}

var (
	_ Certified = (*SqrtLoss)(nil)
	_ Certified = (*PowerLaw)(nil)
	_ Certified = (*LogSaturation)(nil)
	_ Certified = (*Empirical)(nil)
	_ Certified = (*Scaled)(nil)
)

// SqrtLoss is the accuracy-loss bound the paper adopts for simulations
// (footnote 7): A(Ω) = 1/√(Ω·G) + 1/G, where G is the number of training
// epochs. The accuracy gain is P(Ω) = A0 − A(Ω), where A0 is the accuracy
// loss of the untrained model (the paper's A(0), a constant). P is left
// unclamped — at very small Ω it goes negative ("training on almost no data
// is worse than not training"), which keeps P concave and strictly
// increasing everywhere, the shape Eq. (5) requires.
type SqrtLoss struct {
	// G is the number of training epochs (taken constant, footnote 3).
	G float64
	// A0 is the untrained model's accuracy loss, the paper's A(0).
	A0 float64
	// OmegaFloor guards the 1/√Ω singularity at Ω = 0: the model saturates
	// below it. It should be far below any realistic Ω.
	OmegaFloor float64
}

var _ Model = (*SqrtLoss)(nil)

// NewSqrtLoss returns the footnote-7 model with the given epoch count and
// untrained accuracy loss.
func NewSqrtLoss(g, a0 float64) *SqrtLoss {
	return &SqrtLoss{G: g, A0: a0, OmegaFloor: 1e-6}
}

// Loss returns A(Ω) = 1/√(Ω·G) + 1/G.
func (m *SqrtLoss) Loss(omega float64) float64 {
	if omega < m.OmegaFloor {
		omega = m.OmegaFloor
	}
	return 1/math.Sqrt(omega*m.G) + 1/m.G
}

// Value returns P(Ω) = A0 − A(Ω).
func (m *SqrtLoss) Value(omega float64) float64 {
	return m.A0 - m.Loss(omega)
}

// Derivative returns dP/dΩ = 1/(2·√G·Ω^{3/2}).
func (m *SqrtLoss) Derivative(omega float64) float64 {
	if omega < m.OmegaFloor {
		omega = m.OmegaFloor
	}
	return 1 / (2 * math.Sqrt(m.G) * math.Pow(omega, 1.5))
}

// Name implements Model.
func (m *SqrtLoss) Name() string { return "sqrt-loss" }

// ConcaveFrom is the floor: Value is constant below it and rises above.
func (m *SqrtLoss) ConcaveFrom() float64 { return m.OmegaFloor }

// RoundingScale is |A0| + A(ω), not |P|: A0 − A(ω) cancels near P = 0.
// ω·G, the root, two quotients and the sum put 3.5u on A, the difference
// u on P, and a 4u shift of ω moves A by 2u·A: under 6.5u·(|A0| + A).
func (m *SqrtLoss) RoundingScale(omega float64) float64 {
	return math.Abs(m.A0) + m.Loss(omega)
}

// PowerLaw is P(Ω) = A·Ω^B with 0 < B < 1; a standard learning-curve form.
type PowerLaw struct {
	A, B float64
}

var _ Model = (*PowerLaw)(nil)

// NewPowerLaw returns a power-law model; B must lie in (0, 1) for concavity.
func NewPowerLaw(a, b float64) (*PowerLaw, error) {
	if b <= 0 || b >= 1 {
		return nil, fmt.Errorf("power-law exponent %v outside (0,1)", b)
	}
	if a <= 0 {
		return nil, fmt.Errorf("power-law scale %v must be positive", a)
	}
	return &PowerLaw{A: a, B: b}, nil
}

// Value implements Model.
func (m *PowerLaw) Value(omega float64) float64 {
	if omega <= 0 {
		return 0
	}
	return m.A * math.Pow(omega, m.B)
}

// Derivative implements Model.
func (m *PowerLaw) Derivative(omega float64) float64 {
	if omega <= 0 {
		omega = math.SmallestNonzeroFloat64
	}
	return m.A * m.B * math.Pow(omega, m.B-1)
}

// Name implements Model.
func (m *PowerLaw) Name() string { return "power-law" }

// ConcaveFrom is 0 for the parameters NewPowerLaw accepts.
func (m *PowerLaw) ConcaveFrom() float64 {
	if m.A > 0 && m.B > 0 && m.B < 1 {
		return 0
	}
	return math.Inf(1)
}

// RoundingScale is max(P(ω), A)·(1 + |ln ω|): math.Pow forms exp(y·ln ω)
// with |y| ≤ ½, so the u that Log and the product put on the exponent
// reach P as |ln ω|·u, beside 3u from Exp, the integer power and A, and 4u
// from a shifted ω: (7 + |ln ω|)·u·P in all. It falls, then rises, in ω.
func (m *PowerLaw) RoundingScale(omega float64) float64 {
	return m.Value(math.Max(omega, 1)) * (1 + math.Abs(math.Log(omega)))
}

// LogSaturation is P(Ω) = A·log(1 + Ω/C): increasing, concave, saturating.
type LogSaturation struct {
	A, C float64
}

var _ Model = (*LogSaturation)(nil)

// NewLogSaturation returns a logarithmic saturation model; A and C must be
// positive.
func NewLogSaturation(a, c float64) (*LogSaturation, error) {
	if a <= 0 || c <= 0 {
		return nil, fmt.Errorf("log-saturation parameters (%v, %v) must be positive", a, c)
	}
	return &LogSaturation{A: a, C: c}, nil
}

// Value implements Model.
func (m *LogSaturation) Value(omega float64) float64 {
	if omega < 0 {
		omega = 0
	}
	return m.A * math.Log1p(omega/m.C)
}

// Derivative implements Model.
func (m *LogSaturation) Derivative(omega float64) float64 {
	if omega < 0 {
		omega = 0
	}
	return m.A / (m.C + omega)
}

// Name implements Model.
func (m *LogSaturation) Name() string { return "log-saturation" }

// ConcaveFrom is 0 for the parameters NewLogSaturation accepts.
func (m *LogSaturation) ConcaveFrom() float64 {
	if m.A > 0 && m.C > 0 {
		return 0
	}
	return math.Inf(1)
}

// RoundingScale is P itself: the quotient, Log1p and the product are 3u,
// and x/(1+x) ≤ log(1+x) keeps a 4u shift of ω within 4u·P.
func (m *LogSaturation) RoundingScale(omega float64) float64 { return m.Value(omega) }

// Point is a measured (Ω, P) sample used to fit an Empirical model.
type Point struct {
	Omega float64 `json:"omega"`
	P     float64 `json:"p"`
}

// Empirical is a concave piecewise-linear interpolant through measured
// points, e.g. the accuracy curves the FL simulator produces for Fig. 2.
// The fit enforces Eq. (5) by isotonic+concave regression on the inputs:
// values are made nondecreasing and the chord slopes nonincreasing.
type Empirical struct {
	pts  []Point
	name string
	// span is (len(pts)+1)·max|P| over the fitted points (RoundingScale).
	span float64
}

var _ Model = (*Empirical)(nil)

// ErrTooFewPoints is returned when an Empirical fit has fewer than 2 points.
var ErrTooFewPoints = errors.New("empirical accuracy model needs at least two points")

// FitEmpirical builds an Empirical model from measured samples. Input points
// are sorted by Ω; duplicate Ω values keep the maximum P. The result is
// adjusted to be nondecreasing and concave (pool-adjacent-violators on the
// slopes), so it always satisfies Eq. (5) even for noisy measurements.
func FitEmpirical(name string, samples []Point) (*Empirical, error) {
	if len(samples) < 2 {
		return nil, ErrTooFewPoints
	}
	pts := make([]Point, len(samples))
	copy(pts, samples)
	sort.Slice(pts, func(i, j int) bool { return pts[i].Omega < pts[j].Omega })

	// Deduplicate equal Ω, keeping the max P.
	dedup := pts[:1]
	for _, p := range pts[1:] {
		last := &dedup[len(dedup)-1]
		if p.Omega == last.Omega {
			if p.P > last.P {
				last.P = p.P
			}
			continue
		}
		dedup = append(dedup, p)
	}
	if len(dedup) < 2 {
		return nil, ErrTooFewPoints
	}

	// Enforce monotonicity.
	for i := 1; i < len(dedup); i++ {
		if dedup[i].P < dedup[i-1].P {
			dedup[i].P = dedup[i-1].P
		}
	}
	// Enforce concavity: pool adjacent violators on chord slopes.
	dedup = concavify(dedup)
	var maxAbs float64
	for _, p := range dedup {
		maxAbs = math.Max(maxAbs, math.Abs(p.P))
	}
	return &Empirical{pts: dedup, name: name, span: float64(len(dedup)+1) * maxAbs}, nil
}

// concavify performs a single-pass pool-adjacent-violators style smoothing
// that lowers later points until chord slopes are nonincreasing.
func concavify(pts []Point) []Point {
	for i := 2; i < len(pts); i++ {
		s1 := slope(pts[i-2], pts[i-1])
		s2 := slope(pts[i-1], pts[i])
		if s2 > s1 {
			// Cap the new slope at the previous one.
			pts[i].P = pts[i-1].P + s1*(pts[i].Omega-pts[i-1].Omega)
		}
	}
	return pts
}

func slope(a, b Point) float64 {
	return (b.P - a.P) / (b.Omega - a.Omega)
}

// Value implements Model by linear interpolation; it extrapolates flat below
// the first point and with the final slope above the last point.
func (m *Empirical) Value(omega float64) float64 {
	pts := m.pts
	if omega <= pts[0].Omega {
		return pts[0].P
	}
	last := pts[len(pts)-1]
	if omega >= last.Omega {
		prev := pts[len(pts)-2]
		return last.P + slope(prev, last)*(omega-last.Omega)
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Omega >= omega })
	a, b := pts[i-1], pts[i]
	return a.P + slope(a, b)*(omega-a.Omega)
}

// Derivative implements Model with the slope of the active segment.
func (m *Empirical) Derivative(omega float64) float64 {
	pts := m.pts
	if omega <= pts[0].Omega {
		return slope(pts[0], pts[1])
	}
	if omega >= pts[len(pts)-1].Omega {
		return slope(pts[len(pts)-2], pts[len(pts)-1])
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Omega >= omega })
	return slope(pts[i-1], pts[i])
}

// Name implements Model.
func (m *Empirical) Name() string { return m.name }

// ConcaveFrom is the first fitted point: below it Value is flat.
func (m *Empirical) ConcaveFrom() float64 { return m.pts[0].Omega }

// RoundingScale is (K+1)·max|P_k| + P′(ω)·ω for K fitted points.
// Interpolating costs 6u·(|P_a| + |P_b|) on a segment and 6u·P′·ω beyond
// the last point, a 4u shift of ω moves the value by 4u·P′·ω, and the sums
// concavify rounds leave the exact chords nonincreasing only up to
// u·max|P| a point — so the interpolant is that close to a concave one.
func (m *Empirical) RoundingScale(omega float64) float64 {
	return m.span + m.Derivative(omega)*omega
}

// Points returns a copy of the fitted points.
func (m *Empirical) Points() []Point {
	out := make([]Point, len(m.pts))
	copy(out, m.pts)
	return out
}

// VerifyShape checks Eq. (5) numerically for any Model over [lo, hi] using n
// probe points: values nondecreasing and finite-difference slopes
// nonincreasing, both up to tolerance tol. It returns a descriptive error on
// the first violation; nil if the model satisfies the shape property.
func VerifyShape(m Model, lo, hi float64, n int, tol float64) error {
	if n < 3 {
		return errors.New("verify shape: need at least 3 probe points")
	}
	step := (hi - lo) / float64(n-1)
	prevV := math.Inf(-1)
	prevS := math.Inf(1)
	for i := 0; i < n-1; i++ {
		x := lo + float64(i)*step
		v := m.Value(x)
		s := (m.Value(x+step) - v) / step
		if v < prevV-tol {
			return fmt.Errorf("model %s not nondecreasing at Ω=%g: %g < %g", m.Name(), x, v, prevV)
		}
		if s > prevS+tol {
			return fmt.Errorf("model %s not concave at Ω=%g: slope %g > %g", m.Name(), x, s, prevS)
		}
		prevV, prevS = v, s
	}
	return nil
}
