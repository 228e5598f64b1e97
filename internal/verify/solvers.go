package verify

import (
	"fmt"
	"math"

	"tradefl/internal/dbr"
	"tradefl/internal/game"
	"tradefl/internal/gbd"
)

// CheckGBD audits one CGBD solve (Algorithm 1) against its contracts:
//
//   - LowerBounds nondecreasing (the incumbent only improves) and
//     UpperBounds nonincreasing (the master bound only tightens);
//   - bound sandwich LB_k ≤ UB_k at every iteration, and on convergence
//     UB−LB ≤ ε (both up to monotoneTol relative slack);
//   - the incumbent potential trace is monotone;
//   - Result.Potential equals the final lower bound and reproduces exactly
//     as Potential(Profile);
//   - the returned profile is a (maxW·gap + NashSlack)-Nash equilibrium:
//     in a weighted potential game no unilateral deviation can gain more
//     than w_i times the optimality gap (Theorem 1), so regret beyond
//     maxW·(UB−LB) plus audit slack means the solve or the identity is
//     broken;
//   - transfers at the profile are antisymmetric and budget balanced.
//
// eps is the resolved convergence tolerance of the solve. Returns true
// when every audit passes.
func (a *Auditor) CheckGBD(cfg *game.Config, res *gbd.Result, eps float64, source string) bool {
	a.begin()
	ok := true
	tol := func(v float64) float64 {
		if math.IsInf(v, 0) {
			return 0
		}
		return monotoneTol * math.Max(1, math.Abs(v))
	}
	for k := 1; k < len(res.LowerBounds); k++ {
		if res.LowerBounds[k] < res.LowerBounds[k-1]-tol(res.LowerBounds[k-1]) {
			a.violate(Violation{
				Check: "bound-lb-monotone", Source: source,
				Detail: fmt.Sprintf("LB drops from %.9g to %.9g at iteration %d", res.LowerBounds[k-1], res.LowerBounds[k], k),
				Delta:  res.LowerBounds[k-1] - res.LowerBounds[k],
			})
			ok = false
		}
	}
	for k := 1; k < len(res.UpperBounds); k++ {
		if res.UpperBounds[k] > res.UpperBounds[k-1]+tol(res.UpperBounds[k-1]) {
			a.violate(Violation{
				Check: "bound-ub-monotone", Source: source,
				Detail: fmt.Sprintf("UB rises from %.9g to %.9g at iteration %d", res.UpperBounds[k-1], res.UpperBounds[k], k),
				Delta:  res.UpperBounds[k] - res.UpperBounds[k-1],
			})
			ok = false
		}
	}
	for k := 0; k < len(res.LowerBounds) && k < len(res.UpperBounds); k++ {
		lb, ub := res.LowerBounds[k], res.UpperBounds[k]
		if lb > ub+tol(ub) {
			a.violate(Violation{
				Check: "bound-inversion", Source: source,
				Detail: fmt.Sprintf("LB %.9g exceeds UB %.9g at iteration %d", lb, ub, k),
				Delta:  lb - ub,
			})
			ok = false
		}
	}
	gap := math.Inf(1)
	if n := len(res.LowerBounds); n > 0 && len(res.UpperBounds) >= n {
		gap = res.UpperBounds[len(res.UpperBounds)-1] - res.LowerBounds[n-1]
	}
	if res.Converged && gap > eps+tol(res.Potential) {
		a.violate(Violation{
			Check: "bound-gap", Source: source,
			Detail: fmt.Sprintf("converged with gap %.6g > ε = %.3g", gap, eps),
			Delta:  gap - eps,
		})
		ok = false
	}
	if !a.CheckPotentialMonotone(source+".trace", res.PotentialTrace) {
		ok = false
	}
	if n := len(res.LowerBounds); n > 0 && res.Potential != res.LowerBounds[n-1] {
		a.violate(Violation{
			Check: "bound-incumbent", Source: source,
			Detail: fmt.Sprintf("Result.Potential %.17g differs from final LB %.17g", res.Potential, res.LowerBounds[n-1]),
			Delta:  math.Abs(res.Potential - res.LowerBounds[n-1]),
		})
		ok = false
	}
	if got := cfg.Potential(res.Profile); got != res.Potential {
		a.violate(Violation{
			Check: "potential-consistency", Source: source,
			Detail: fmt.Sprintf("Potential(Profile) = %.17g but Result.Potential = %.17g", got, res.Potential),
			Delta:  math.Abs(got - res.Potential),
		})
		ok = false
	}
	if !math.IsInf(gap, 0) {
		maxW := 0.0
		for i := 0; i < cfg.N(); i++ {
			if w := cfg.EffectiveWeight(i); w > maxW {
				maxW = w
			}
		}
		if !a.CheckNash(cfg, res.Profile, maxW*math.Max(0, gap)+NashSlack, source) {
			ok = false
		}
	}
	if !a.CheckTransfers(cfg, res.Profile, source) {
		ok = false
	}
	return ok
}

// CheckDBR audits one local DBR solve (Algorithm 2):
//
//   - the per-sweep potential trace is nondecreasing (every accepted move
//     raises the mover's payoff by more than Tol, hence the weighted
//     potential by Theorem 1);
//   - the final trace entries reproduce exactly from the returned profile
//     (potential and per-organization payoffs);
//   - a converged profile passes the NashSlack no-profitable-deviation
//     audit and the transfer antisymmetry / budget-balance checks.
//
// Returns true when every audit passes.
func (a *Auditor) CheckDBR(cfg *game.Config, res *dbr.Result, source string) bool {
	a.begin()
	ok := a.CheckPotentialMonotone(source+".trace", res.PotentialTrace)
	if n := len(res.PotentialTrace); n > 0 {
		if got := cfg.Potential(res.Profile); got != res.PotentialTrace[n-1] {
			a.violate(Violation{
				Check: "potential-consistency", Source: source,
				Detail: fmt.Sprintf("Potential(Profile) = %.17g but final trace entry = %.17g", got, res.PotentialTrace[n-1]),
				Delta:  math.Abs(got - res.PotentialTrace[n-1]),
			})
			ok = false
		}
	}
	if n := len(res.PayoffTrace); n > 0 {
		last := res.PayoffTrace[n-1]
		for i, want := range cfg.Payoffs(res.Profile) {
			if i < len(last) && last[i] != want {
				a.violate(Violation{
					Check: "payoff-consistency", Source: source,
					Detail: fmt.Sprintf("org %d final traced payoff %.17g differs from Payoff(Profile) = %.17g", i, last[i], want),
					Delta:  math.Abs(last[i] - want),
				})
				ok = false
			}
		}
	}
	if res.Converged {
		if !a.CheckNash(cfg, res.Profile, NashSlack, source) {
			ok = false
		}
	}
	if !a.CheckTransfers(cfg, res.Profile, source) {
		ok = false
	}
	return ok
}
