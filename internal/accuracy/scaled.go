package accuracy

import (
	"fmt"
	"math"
)

// Scaled adapts a Model to a different Ω unit: it evaluates the inner model
// at Ω/Unit and chain-rules the derivative. Use it when the game measures Ω
// in one unit (e.g. samples) while the model is calibrated in another
// (e.g. kilosamples). Shape properties are preserved for any Unit > 0.
type Scaled struct {
	Inner Model
	// Unit is the divisor applied to Ω before the inner model (> 0).
	Unit float64
}

var _ Model = (*Scaled)(nil)

// NewScaled wraps inner so that one inner-unit equals unit outer-units.
func NewScaled(inner Model, unit float64) (*Scaled, error) {
	if unit <= 0 {
		return nil, fmt.Errorf("scaled accuracy model: unit %v must be positive", unit)
	}
	if inner == nil {
		return nil, fmt.Errorf("scaled accuracy model: nil inner model")
	}
	return &Scaled{Inner: inner, Unit: unit}, nil
}

// Value implements Model.
func (m *Scaled) Value(omega float64) float64 { return m.Inner.Value(omega / m.Unit) }

// Derivative implements Model (chain rule).
func (m *Scaled) Derivative(omega float64) float64 {
	return m.Inner.Derivative(omega/m.Unit) / m.Unit
}

// Name implements Model.
func (m *Scaled) Name() string { return m.Inner.Name() + "/scaled" }

// ConcaveFrom rescales the inner model's bound, a hair up so the rounded
// quotient Value forms cannot land under it; +Inf for an inner model
// without the inverse.
func (m *Scaled) ConcaveFrom() float64 {
	if c, ok := m.Inner.(Invertible); ok {
		return c.ConcaveFrom() * m.Unit * (1 + 0x1p-50)
	}
	return math.Inf(1)
}

// InverseDerivative is the inner model's at k·Unit, rescaled: P′(Ω/U)/U = k.
// NaN for an inner model without the inverse.
func (m *Scaled) InverseDerivative(k float64) float64 {
	if c, ok := m.Inner.(Invertible); ok {
		return c.InverseDerivative(k*m.Unit) * m.Unit
	}
	return math.NaN()
}
