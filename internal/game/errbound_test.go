package game

import (
	"math"
	"math/big"
	"testing"

	"tradefl/internal/accuracy"
	"tradefl/internal/randx"
)

// exactPayoff evaluates, in 300-bit arithmetic, the concave function ErrBound
// is stated against: Eq. (11) over the evaluator's cached float operands, for
// the default model Scaled(SqrtLoss), P(ω) = A0 − 1/√(ω·G/unit) − 1/G.
func exactPayoff(ev *DeltaEvaluator, i int, s Strategy) *big.Float {
	const prec = 300
	num := func(v float64) *big.Float { return new(big.Float).SetPrec(prec).SetFloat64(v) }
	mul := func(vs ...*big.Float) *big.Float {
		out := num(1)
		for _, v := range vs {
			out.Mul(out, v)
		}
		return out
	}
	sc := ev.acc.(*accuracy.Scaled)
	m := sc.Inner.(*accuracy.SqrtLoss)
	perf := func(omega *big.Float) *big.Float {
		root := new(big.Float).SetPrec(prec).Sqrt(new(big.Float).Quo(mul(omega, num(m.G)), num(sc.Unit)))
		p := num(m.A0)
		p.Sub(p, new(big.Float).Quo(num(1), root))
		return p.Sub(p, new(big.Float).Quo(num(1), num(m.G)))
	}

	rest := num(0)
	for j, t := range ev.terms {
		if j != i {
			rest.Add(rest, num(t))
		}
	}
	own := mul(num(s.D), num(ev.scale[i]))
	global := perf(new(big.Float).Add(rest, own))
	revenue := mul(num(ev.prof[i]), num(ev.oneMinusAlpha), global)
	if ev.personal {
		revenue.Add(revenue, mul(num(ev.prof[i]), num(ev.alpha), perf(mul(num(ev.boost), own))))
	}
	damage := mul(num(ev.dmgCoef[i]), new(big.Float).Sub(global, perf(rest)))
	cp := ev.cfg.Orgs[i].Comm
	energy := mul(num(cp.Kappa), num(s.F), num(s.F), num(cp.CyclesPerBit), num(s.D), num(ev.bits[i]))
	energy.Add(energy, num(ev.commE[i]))
	xi := mul(num(ev.q[i]), num(s.D), num(ev.bits[i]))
	xi.Add(xi, mul(num(ev.lambda), num(s.F)))
	redist := num(0)
	for j, g := range ev.g {
		if j != i {
			redist.Add(redist, mul(num(g), new(big.Float).Sub(xi, num(ev.xs[j]))))
		}
	}
	out := revenue.Sub(revenue, mul(num(ev.energyWeight), energy))
	out.Sub(out, damage)
	return out.Add(out, redist)
}

// TestErrBoundCoversRounding checks the statement ErrBound makes, against
// the exact value: |PayoffWith − C| ≤ E at the ends and inside every feasible
// interval, over sizes, personalization and profiles. It also reports how
// much of E the observed error uses, the room the certificate's margin has.
func TestErrBoundCoversRounding(t *testing.T) {
	src := randx.New(17)
	var worst float64
	for _, gen := range []GenOptions{{Seed: 2, N: 2}, {Seed: 7, N: 4}, {Seed: 1}, {Seed: 11, N: 16, Mu: 0.9}, {Seed: 5, N: 40}, {Seed: 6, N: 160}} {
		for _, alpha := range []float64{0, 0.3, 0.95} {
			cfg, err := DefaultConfig(gen)
			if err != nil {
				t.Fatal(err)
			}
			if alpha > 0 {
				cfg.Personal = Personalization{Alpha: alpha, LocalBoost: 1.5}
			}
			ev := NewDeltaEvaluator(cfg)
			ev.Bind(randomProfile(cfg, src))
			for i := range cfg.Orgs {
				for _, f := range cfg.Orgs[i].CPULevels {
					lo, hi, ok := cfg.FeasibleD(i, f)
					if !ok {
						continue
					}
					bound, ok := ev.ErrBound(i, Strategy{D: hi, F: f})
					if !ok {
						t.Fatalf("N=%d α=%v org %d: no bound on a default instance", cfg.N(), alpha, i)
					}
					for _, d := range []float64{lo, lo + 0x1p-26, src.Uniform(lo, hi), hi - 0x1p-26, hi} {
						if d < lo || d > hi {
							continue
						}
						s := Strategy{D: d, F: f}
						diff := new(big.Float).Sub(exactPayoff(ev, i, s), new(big.Float).SetFloat64(ev.PayoffWith(i, s)))
						e, _ := diff.Abs(diff).Float64()
						if e > bound {
							t.Fatalf("N=%d α=%v org %d d=%v f=%g: |PayoffWith − C| = %g exceeds the bound %g", cfg.N(), alpha, i, d, f, e, bound)
						}
						worst = math.Max(worst, e/bound)
					}
				}
			}
		}
	}
	t.Logf("largest observed error: %.3g of the bound", worst)
}

// TestErrBoundRefuses lists what ErrBound must not answer for.
func TestErrBoundRefuses(t *testing.T) {
	base := func() *Config {
		cfg, err := DefaultConfig(GenOptions{Seed: 4, N: 6})
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	refuses := func(name string, cfg *Config, s Strategy) {
		t.Helper()
		ev := NewDeltaEvaluator(cfg)
		ev.Bind(cfg.MinimalProfile())
		if e, ok := ev.ErrBound(0, s); ok {
			t.Errorf("%s: bound %g, want a refusal", name, e)
		}
	}
	top := Strategy{D: 1, F: 5e9}

	cfg := base()
	ev := NewDeltaEvaluator(cfg)
	ev.Bind(cfg.MinimalProfile())
	if _, ok := ev.ErrBound(0, top); !ok {
		t.Fatal("default instance refused; the cases below would prove nothing")
	}
	refuses("d above 1", cfg, Strategy{D: 1.5, F: 5e9})

	cfg = base()
	cfg.Accuracy = foreignModel{cfg.Accuracy}
	refuses("model without the certificate methods", cfg, top)

	cfg = base()
	for i := range cfg.Orgs {
		cfg.Orgs[i].Samples = 1e-4
	}
	refuses("Ω under the model's floor", cfg, top)

	cfg = base()
	cfg.Personal = Personalization{Alpha: 0.3}
	cfg.DMin = 1e-9
	refuses("personalized Ω under the floor at D_min", cfg, top)

	cfg = base()
	cfg.Orgs = cfg.Orgs[:1]
	cfg.Rho = [][]float64{{0}}
	refuses("a single organization (Ω₋ᵢ = 0)", cfg, top)
}

// foreignModel hides the certificate methods of the model it wraps.
type foreignModel struct{ accuracy.Model }
