package accuracy

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

func TestSqrtLossValue(t *testing.T) {
	m := NewSqrtLoss(5, 1.0)
	tests := []struct {
		name  string
		omega float64
		want  float64
	}{
		{"at one", 1, 1.0 - 1/math.Sqrt(5) - 0.2},
		{"at four", 4, 1.0 - 1/math.Sqrt(20) - 0.2},
		{"large omega approaches A0 minus 1/G", 1e12, 1.0 - 0.2 - 1e-6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := m.Value(tt.omega)
			if math.Abs(got-tt.want) > 1e-6 {
				t.Errorf("Value(%v) = %v, want %v", tt.omega, got, tt.want)
			}
		})
	}
}

func TestSqrtLossNegativeAtTinyOmega(t *testing.T) {
	m := NewSqrtLoss(5, 1.0)
	if v := m.Value(1e-4); v >= 0 {
		t.Errorf("Value(1e-4) = %v, want negative (worse than untrained)", v)
	}
}

func TestSqrtLossFloorSaturates(t *testing.T) {
	m := NewSqrtLoss(5, 1.0)
	if got, want := m.Value(0), m.Value(m.OmegaFloor); got != want {
		t.Errorf("Value(0) = %v, want floor value %v", got, want)
	}
	if math.IsInf(m.Value(0), 0) || math.IsNaN(m.Value(0)) {
		t.Errorf("Value(0) = %v, want finite", m.Value(0))
	}
}

func TestModelsSatisfyShapeProperty(t *testing.T) {
	pl, err := NewPowerLaw(0.3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := NewLogSaturation(0.2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewScaled(NewSqrtLoss(5, 1.0), 1000)
	if err != nil {
		t.Fatal(err)
	}
	models := []Model{NewSqrtLoss(5, 1.0), pl, ls, sc}
	for _, m := range models {
		t.Run(m.Name(), func(t *testing.T) {
			if err := VerifyShape(m, 10, 1e6, 500, 1e-9); err != nil {
				t.Errorf("shape property violated: %v", err)
			}
		})
	}
}

func TestDerivativeMatchesFiniteDifference(t *testing.T) {
	pl, _ := NewPowerLaw(0.3, 0.5)
	ls, _ := NewLogSaturation(0.2, 1000)
	models := []Model{NewSqrtLoss(5, 1.0), pl, ls}
	for _, m := range models {
		t.Run(m.Name(), func(t *testing.T) {
			for _, omega := range []float64{10, 100, 5000, 2e5} {
				h := omega * 1e-6
				fd := (m.Value(omega+h) - m.Value(omega-h)) / (2 * h)
				an := m.Derivative(omega)
				if rel := math.Abs(fd-an) / math.Max(math.Abs(an), 1e-300); rel > 1e-4 {
					t.Errorf("Ω=%v: derivative %v vs finite difference %v", omega, an, fd)
				}
			}
		})
	}
}

// TestInverseDerivativeInvertsDerivative holds every model's inverse to its
// Derivative over the concave domain: for k = P′(Ω) on a log grid of Ω from
// just above ConcaveFrom to 10¹², P′(InverseDerivative(k)) = k within a few
// ulps, the inverse rises as k falls, and a k steeper than P′ anywhere on
// the domain maps under ConcaveFrom.
func TestInverseDerivativeInvertsDerivative(t *testing.T) {
	ls, _ := NewLogSaturation(0.2, 1000)
	inner := []Model{NewSqrtLoss(5, 1.1), ls}
	for _, b := range []float64{0.05, 0.5, 0.95} {
		pl, _ := NewPowerLaw(0.3, b)
		inner = append(inner, pl)
	}
	var models []Invertible
	for _, m := range inner {
		sc, _ := NewScaled(m, 1000)
		models = append(models, m.(Invertible), sc)
	}
	for _, m := range models {
		model := m.(Model)
		from := m.ConcaveFrom()
		prev := math.Inf(-1)
		for e := -30.0; e <= 12; e += 0.25 {
			omega := math.Pow(10, e)
			if omega <= from*(1+1e-9) {
				continue
			}
			k := model.Derivative(omega)
			inv := m.InverseDerivative(k)
			if got := model.Derivative(inv); !(math.Abs(got-k) <= 1e-13*k) {
				t.Errorf("%s %+v: P′(InverseDerivative(%g)) = %g at Ω = %g, want P′(%g) = %g", model.Name(), m, k, got, inv, omega, k)
			}
			if inv < prev-1e-12*math.Abs(prev) {
				t.Errorf("%s %+v: InverseDerivative falls from %g to %g as k falls to %g", model.Name(), m, prev, inv, k)
			}
			prev = inv
		}
		if from > 0 {
			if inv := m.InverseDerivative(2 * model.Derivative(from*(1+1e-9))); !(inv < from) {
				t.Errorf("%s %+v: a k twice P′ at ConcaveFrom %g maps to Ω = %g, not under it", model.Name(), m, from, inv)
			}
		}
	}
	if got := (&Scaled{Inner: foreign{}, Unit: 2}).InverseDerivative(1); !math.IsNaN(got) {
		t.Errorf("Scaled over a model without the inverse: InverseDerivative = %g, want NaN", got)
	}
}

// foreign is a Model without the inverse.
type foreign struct{}

func (foreign) Value(omega float64) float64      { return omega }
func (foreign) Derivative(omega float64) float64 { return 1 }
func (foreign) Name() string                     { return "foreign" }

func TestPowerLawValidation(t *testing.T) {
	tests := []struct {
		name string
		a, b float64
	}{
		{"b too large", 1, 1},
		{"b zero", 1, 0},
		{"b negative", 1, -0.5},
		{"a zero", 0, 0.5},
		{"a negative", -1, 0.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewPowerLaw(tt.a, tt.b); err == nil {
				t.Errorf("NewPowerLaw(%v, %v) accepted, want error", tt.a, tt.b)
			}
		})
	}
}

func TestLogSaturationValidation(t *testing.T) {
	if _, err := NewLogSaturation(0, 1); err == nil {
		t.Error("NewLogSaturation(0, 1) accepted, want error")
	}
	if _, err := NewLogSaturation(1, 0); err == nil {
		t.Error("NewLogSaturation(1, 0) accepted, want error")
	}
}

func TestScaledValidation(t *testing.T) {
	if _, err := NewScaled(NewSqrtLoss(5, 1), 0); err == nil {
		t.Error("NewScaled with unit 0 accepted, want error")
	}
	if _, err := NewScaled(nil, 1); err == nil {
		t.Error("NewScaled with nil inner accepted, want error")
	}
}

func TestScaledMatchesManualConversion(t *testing.T) {
	inner := NewSqrtLoss(5, 1.0)
	sc, err := NewScaled(inner, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, omega := range []float64{500, 1500, 123456} {
		if got, want := sc.Value(omega), inner.Value(omega/1000); got != want {
			t.Errorf("Value(%v) = %v, want %v", omega, got, want)
		}
		if got, want := sc.Derivative(omega), inner.Derivative(omega/1000)/1000; math.Abs(got-want) > 1e-18 {
			t.Errorf("Derivative(%v) = %v, want %v", omega, got, want)
		}
	}
}

func TestVerifyShapeDetectsViolations(t *testing.T) {
	// A convex function must be rejected.
	convex := &PowerLaw{A: 1, B: 2} // constructed directly to bypass validation
	if err := VerifyShape(convex, 1, 100, 50, 1e-9); err == nil {
		t.Error("VerifyShape accepted a convex model")
	}
	if err := VerifyShape(NewSqrtLoss(5, 1), 1, 10, 2, 1e-9); err == nil {
		t.Error("VerifyShape accepted n < 3")
	}
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
