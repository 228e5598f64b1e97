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
package accuracy

import (
	"fmt"
	"math"
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

// Invertible is what every model of this package offers beyond Model: the
// first-order condition of a concave payoff in closed form (DBR's best
// response, DESIGN.md §10).
type Invertible interface {
	// ConcaveFrom returns the smallest Ω from which Value really is
	// nondecreasing and concave: a guard at Ω ≈ 0 (SqrtLoss.OmegaFloor)
	// puts a convex kink there. +Inf means nowhere (parameters outside the
	// model's range, or a wrapped model without the inverse).
	ConcaveFrom() float64
	// InverseDerivative returns the Ω at which Derivative(Ω) = k, for
	// k > 0. Where no Ω ≥ ConcaveFrom has a derivative that large, the Ω it
	// returns lies under ConcaveFrom.
	InverseDerivative(k float64) float64
}

var (
	_ Invertible = (*SqrtLoss)(nil)
	_ Invertible = (*PowerLaw)(nil)
	_ Invertible = (*LogSaturation)(nil)
	_ Invertible = (*Scaled)(nil)
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

// InverseDerivative solves 1/(2·√G·Ω^{3/2}) = k: Ω = (2·√G·k)^{−2/3},
// one cube root and no Pow.
func (m *SqrtLoss) InverseDerivative(k float64) float64 {
	c := math.Cbrt(2 * math.Sqrt(m.G) * k)
	return 1 / (c * c)
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

// InverseDerivative solves A·B·Ω^{B−1} = k: Ω = (k/(A·B))^{1/(B−1)}.
func (m *PowerLaw) InverseDerivative(k float64) float64 {
	return math.Pow(k/(m.A*m.B), 1/(m.B-1))
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

// InverseDerivative solves A/(C + Ω) = k: Ω = A/k − C.
func (m *LogSaturation) InverseDerivative(k float64) float64 { return m.A/k - m.C }
