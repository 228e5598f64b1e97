package game

import (
	"fmt"
	"math"
)

// NashReport is the result of a Nash-equilibrium audit of a profile.
type NashReport struct {
	// IsNash is true when no organization has a profitable unilateral
	// deviation larger than Tolerance on the audited grid.
	IsNash bool
	// MaxRegret is the largest payoff improvement any organization could
	// gain by deviating (0 when none).
	MaxRegret float64
	// Deviator is the index of the organization with the largest regret,
	// or -1 when none.
	Deviator int
	// Tolerance is the regret threshold used.
	Tolerance float64
}

func (r NashReport) String() string {
	if r.IsNash {
		return fmt.Sprintf("nash (max regret %.3g ≤ tol %.3g)", r.MaxRegret, r.Tolerance)
	}
	return fmt.Sprintf("not nash: org %d can gain %.6g (> tol %.3g)", r.Deviator, r.MaxRegret, r.Tolerance)
}

// CheckNash audits whether π is a (grid-)Nash equilibrium of the coopetition
// game: for every organization it scans all CPU levels and gridRes data
// fractions across the feasible interval and measures the best payoff
// improvement over C_i(π). Definition 6 of the paper.
//
// The unilateral deviations are evaluated through a DeltaEvaluator bound
// once to p; the evaluator is byte-identical to Config.Payoff, so the
// report equals a from-scratch scan's at O(N) per deviation instead of
// O(N²).
func (c *Config) CheckNash(p Profile, gridRes int, tol float64) NashReport {
	if gridRes < 2 {
		gridRes = 2
	}
	report := NashReport{IsNash: true, Deviator: -1, Tolerance: tol}
	ev := NewDeltaEvaluator(c)
	ev.Bind(p)
	for i := range c.Orgs {
		base := ev.Payoff(i)
		for _, f := range c.Orgs[i].CPULevels {
			lo, hi, ok := c.FeasibleD(i, f)
			if !ok {
				continue
			}
			for k := 0; k < gridRes; k++ {
				d := lo + (hi-lo)*float64(k)/float64(gridRes-1)
				regret := ev.PayoffWith(i, Strategy{D: d, F: f}) - base
				if regret > report.MaxRegret {
					report.MaxRegret = regret
					report.Deviator = i
				}
			}
		}
	}
	report.IsNash = report.MaxRegret <= tol
	return report
}

// CheckBudgetBalance returns Σ_i R_i(π). Definition 5 requires the sum to
// be zero; with a symmetric ρ the pairwise transfers cancel exactly, so any
// residual beyond floating-point noise indicates an asymmetric matrix.
func (c *Config) CheckBudgetBalance(p Profile) float64 {
	var sum float64
	for i := range c.Orgs {
		sum += c.Redistribution(i, p)
	}
	return sum
}

// CheckIndividualRationality reports whether every organization's payoff at
// π is nonnegative (Definition 3), returning the most negative payoff and
// the organization that earns it (-1 if all are nonnegative).
func (c *Config) CheckIndividualRationality(p Profile) (ok bool, worst float64, org int) {
	worst = math.Inf(1)
	org = -1
	for i, v := range c.Payoffs(p) {
		if v < worst {
			worst = v
			org = i
		}
	}
	if worst >= 0 {
		return true, worst, -1
	}
	return false, worst, org
}

// PotentialIdentityError measures how exactly the weighted-potential
// identity of Theorem 1 holds for a unilateral deviation of organization i
// from p to q (q must differ from p only at index i):
//
//	err = | w_i·[U(p) − U(q)] − [C_i(p) − C_i(q)] |,
//
// where w_i is the effective weight ((1−α)·z_i; z_i in the base model).
// A correct implementation keeps this at floating-point noise for every
// deviation, which the property tests assert.
func (c *Config) PotentialIdentityError(i int, p, q Profile) float64 {
	wi := c.EffectiveWeight(i)
	du := c.Potential(p) - c.Potential(q)
	dc := c.Payoff(i, p) - c.Payoff(i, q)
	return math.Abs(wi*du - dc)
}
