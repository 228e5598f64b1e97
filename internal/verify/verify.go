// Package verify is TradeFL's runtime invariant auditor and differential
// verification harness.
//
// The repo's solvers hold tight mathematical contracts — Theorem 1's
// weighted-potential identity, Definition 5's budget balance, Algorithm 1's
// bound sandwich, Definition 6's equilibrium property, and the incremental
// engine's byte-identical equivalence — and each of those is checkable at
// runtime for a small multiple of the work the solvers already did. This
// package makes the checks first-class:
//
//   - Auditor carries the invariant checks. Each check counts into
//     tradefl_verify_checks_total, records violations (capped) with a
//     structured log line; each Violation names its invariant family.
//   - Enable installs the auditor behind the solver audit hooks
//     (gbd.SetAuditHook, dbr.SetAuditHook, chain.SetSettlementAudit), so
//     every Solve and every on-chain payoffCalculate in the process is
//     audited. All four cmds expose this as -verify, exiting nonzero when
//     any invariant broke.
//   - Differential (diff_test.go) fuzzes random game instances and cross-runs
//     CGBD against an independent exhaustive solver, DBR against CGBD, and
//     the DeltaEvaluator against Config.Payoff.
//
// The mutation self-tests prove the auditor is live: for every invariant
// family they inject a violation (a potential drop, an asymmetric ρ, a
// bound inversion, a non-Nash profile, an unbalanced settlement, a
// desynced evaluator) and assert the corresponding check fires.
package verify

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"tradefl/internal/chain"
	"tradefl/internal/game"
	"tradefl/internal/obs"
	"tradefl/internal/randx"
)

var vLog = obs.Component("verify")

// Violation is one recorded invariant breach.
type Violation struct {
	// Check identifies the invariant, e.g. "potential-monotone",
	// "transfer-antisymmetry", "bound-inversion", "nash-deviation",
	// "settlement-balance", "evaluator-mismatch".
	Check string `json:"check"`
	// Source names the emitting subsystem ("gbd", "dbr", "chain", "chaos",
	// "diff", or a test label).
	Source string `json:"source"`
	// Detail is the human-readable description.
	Detail string `json:"detail"`
	// Delta is the magnitude of the breach (0 when not meaningful).
	Delta float64 `json:"delta"`
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s: %s (delta %.6g)", v.Source, v.Check, v.Detail, v.Delta)
}

// The auditor's tolerances, matched to the solvers' own guarantees.
const (
	// monotoneTol bounds how far a potential trace may dip below its
	// running maximum before the monotonicity check fires, and doubles as
	// the relative slack of the CGBD bound-sandwich checks (the DBR move
	// threshold).
	monotoneTol = 1e-9
	// balanceTol is the relative tolerance of the float budget-balance
	// check: |Σ R_i| ≤ balanceTol·max(1, Σ|R_i|). The wei settlement check
	// is always exact — zero tolerance.
	balanceTol = 1e-9
	// gridRes is the per-CPU-level data-fraction resolution of the Nash
	// audit grid.
	gridRes = 24
	// maxViolations caps the retained violation records; counters keep
	// counting past the cap.
	maxViolations = 256
)

// NashSlack is the additive payoff slack of the no-profitable-deviation
// grid audit: payoffs are O(10³) on the Table II instance and the audit
// grid probes points the golden-section line search only approximated.
const NashSlack = 1e-2

// Auditor runs invariant checks and accumulates violation reports. All
// methods are safe for concurrent use.
type Auditor struct {
	checks atomic.Int64
	count  atomic.Int64

	mu         sync.Mutex
	violations []Violation
}

// New builds an auditor.
func New() *Auditor { return &Auditor{} }

// Checks returns the number of invariant checks executed.
func (a *Auditor) Checks() int64 { return a.checks.Load() }

// Count returns the number of violations detected.
func (a *Auditor) Count() int64 { return a.count.Load() }

// Violations returns a copy of the retained violation records.
func (a *Auditor) Violations() []Violation {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Violation, len(a.violations))
	copy(out, a.violations)
	return out
}

// Reset clears the violation records and counters of this auditor (process
// metrics are monotone and keep their totals).
func (a *Auditor) Reset() {
	a.mu.Lock()
	a.violations = a.violations[:0]
	a.mu.Unlock()
	a.checks.Store(0)
	a.count.Store(0)
}

// Summary renders the audit outcome for terminal consumption.
func (a *Auditor) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "verify: %d checks, %d violations\n", a.Checks(), a.Count())
	for _, v := range a.Violations() {
		fmt.Fprintf(&b, "  %s\n", v.String())
	}
	return b.String()
}

// begin counts one check execution.
func (a *Auditor) begin() {
	a.checks.Add(1)
	mChecks.Inc()
}

// violate records one breach; v.Check names its family.
func (a *Auditor) violate(v Violation) {
	a.count.Add(1)
	mViolations.Inc()
	obs.FlightRecord("verify", "violation", fmt.Sprintf("check=%s source=%s delta=%g detail=%s", v.Check, v.Source, v.Delta, v.Detail))
	vLog.Warn("invariant violation", "check", v.Check, "source", v.Source, "detail", v.Detail, "delta", v.Delta)
	a.mu.Lock()
	if len(a.violations) < maxViolations {
		a.violations = append(a.violations, v)
	}
	a.mu.Unlock()
}

// CheckPotentialMonotone audits that trace is nondecreasing up to
// monotoneTol. −Inf entries (CGBD iterations before the first feasible
// primal) are carried over; NaN is always a violation. Returns true when
// the trace is clean.
func (a *Auditor) CheckPotentialMonotone(source string, trace []float64) bool {
	a.begin()
	ok := true
	prev := math.Inf(-1)
	worstDrop := 0.0
	worstAt := -1
	for k, v := range trace {
		if math.IsNaN(v) {
			a.violate(Violation{
				Check: "potential-nan", Source: source,
				Detail: fmt.Sprintf("potential trace entry %d is NaN", k),
			})
			ok = false
			continue
		}
		if drop := prev - v; drop > monotoneTol && drop > worstDrop {
			worstDrop = drop
			worstAt = k
		}
		if v > prev {
			prev = v
		}
	}
	if worstAt >= 0 {
		a.violate(Violation{
			Check: "potential-monotone", Source: source,
			Detail: fmt.Sprintf("potential trace drops by %.6g at entry %d (len %d)", worstDrop, worstAt, len(trace)),
			Delta:  worstDrop,
		})
		ok = false
	}
	return ok
}

// CheckTransfers audits the redistribution of Eq. (9) at profile p:
// pairwise antisymmetry r_ij = −r_ji (bit-exact whenever ρ_ij and ρ_ji are
// bit-equal, which Validate enforces) and Definition 5 budget balance
// |Σ R_i| ≤ balanceTol·max(1, Σ|R_i|). Returns true when clean.
func (a *Auditor) CheckTransfers(cfg *game.Config, p game.Profile, source string) bool {
	a.begin()
	ok := true
	n := cfg.N()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			rij := cfg.Transfer(i, j, p)
			rji := cfg.Transfer(j, i, p)
			if cfg.Rho[i][j] == cfg.Rho[j][i] {
				// γ·ρ is the identical product on both sides and IEEE
				// negation through (x_j−x_i) = −(x_i−x_j) is exact, so the
				// antisymmetry must hold to the bit.
				if rij != -rji {
					a.violate(Violation{
						Check: "transfer-antisymmetry", Source: source,
						Detail: fmt.Sprintf("r_%d%d = %.17g but r_%d%d = %.17g (ρ symmetric: must negate bit-exactly)", i, j, rij, j, i, rji),
						Delta:  math.Abs(rij + rji),
					})
					ok = false
				}
			} else if diff := math.Abs(rij + rji); diff > balanceTol*math.Max(1, math.Abs(rij)) {
				a.violate(Violation{
					Check: "transfer-antisymmetry", Source: source,
					Detail: fmt.Sprintf("r_%d%d + r_%d%d = %.6g with asymmetric ρ (%.17g vs %.17g)", i, j, j, i, diff, cfg.Rho[i][j], cfg.Rho[j][i]),
					Delta:  diff,
				})
				ok = false
			}
		}
	}
	var scale float64
	for i := 0; i < n; i++ {
		scale += math.Abs(cfg.Redistribution(i, p))
	}
	if sum := cfg.CheckBudgetBalance(p); math.Abs(sum) > balanceTol*math.Max(1, scale) {
		a.violate(Violation{
			Check: "budget-balance", Source: source,
			Detail: fmt.Sprintf("Σ R_i = %.6g exceeds tolerance %.3g·max(1, %.6g)", sum, balanceTol, scale),
			Delta:  math.Abs(sum),
		})
		ok = false
	}
	return ok
}

// CheckNash audits the no-profitable-deviation property of p on the
// standard grid with the given regret tolerance. Returns true when p
// passes.
func (a *Auditor) CheckNash(cfg *game.Config, p game.Profile, tol float64, source string) bool {
	a.begin()
	rep := cfg.CheckNash(p, gridRes, tol)
	if rep.IsNash {
		return true
	}
	a.violate(Violation{
		Check: "nash-deviation", Source: source,
		Detail: fmt.Sprintf("org %d can gain %.6g by deviating (tolerance %.3g)", rep.Deviator, rep.MaxRegret, tol),
		Delta:  rep.MaxRegret,
	})
	return false
}

// CheckSettlement cross-checks one on-chain payoffCalculate outcome
// against an independent float recomputation of Eq. (9). The wei payoffs
// must sum to exactly zero (Definition 5 is wei-exact on chain), the float
// transfer matrix must be bit-antisymmetric, and every member's payoff
// must equal the rounded recomputation — member 0 additionally absorbing
// the signed rounding residual. Returns true when clean.
func (a *Auditor) CheckSettlement(params chain.ContractParams, contribs []chain.Contribution, payoffs []chain.Wei, source string) bool {
	a.begin()
	ok := true
	n := len(params.Members)
	if len(contribs) != n || len(payoffs) != n {
		a.violate(Violation{
			Check: "settlement-shape", Source: source,
			Detail: fmt.Sprintf("%d members but %d contributions / %d payoffs", n, len(contribs), len(payoffs)),
		})
		return false
	}
	var sum chain.Wei
	for _, w := range payoffs {
		sum += w
	}
	if sum != 0 {
		a.violate(Violation{
			Check: "settlement-balance", Source: source,
			Detail: fmt.Sprintf("Σ payoffs = %d wei, want exactly 0", sum),
			Delta:  float64(sum),
		})
		ok = false
	}
	// Mirror payoffCalculate's expression order exactly so a clean contract
	// reproduces to the bit.
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = contribs[i].D*params.DataBits[i] + params.Lambda*contribs[i].F
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			tij := params.Gamma * params.Rho[i][j] * (xs[i] - xs[j])
			tji := params.Gamma * params.Rho[j][i] * (xs[j] - xs[i])
			if params.Rho[i][j] == params.Rho[j][i] && tij != -tji {
				a.violate(Violation{
					Check: "settlement-antisymmetry", Source: source,
					Detail: fmt.Sprintf("t_%d%d = %.17g but t_%d%d = %.17g", i, j, tij, j, i, tji),
					Delta:  math.Abs(tij + tji),
				})
				ok = false
			}
		}
	}
	expect := make([]chain.Wei, n)
	var residual chain.Wei
	for i := 0; i < n; i++ {
		var r float64
		for j := 0; j < n; j++ {
			r += params.Gamma * params.Rho[i][j] * (xs[i] - xs[j])
		}
		expect[i] = chain.ToWei(r)
		residual += expect[i]
	}
	expect[0] -= residual
	for i, w := range payoffs {
		if w != expect[i] {
			a.violate(Violation{
				Check: "settlement-mismatch", Source: source,
				Detail: fmt.Sprintf("member %d payoff %d wei, independent recomputation says %d wei (residual %d)", i, w, expect[i], residual),
				Delta:  math.Abs(float64(w - expect[i])),
			})
			ok = false
		}
	}
	return ok
}

// CheckEvaluator audits a DeltaEvaluator the caller claims is bound to p:
// every organization's bound payoff and `deviations` seeded random
// single-coordinate substitutions must match Config.Payoff bit-for-bit,
// alone and at either seat of the paired probe (beside the bound strategy,
// beside itself). True when clean; CheckIncremental binds its own evaluator.
func (a *Auditor) CheckEvaluator(cfg *game.Config, ev *game.DeltaEvaluator, p game.Profile, deviations int, seed int64, source string) bool {
	a.begin()
	ok := true
	same := func(got, want float64, i int, s game.Strategy, asked string) {
		if got != want {
			a.violate(Violation{
				Check: "evaluator-mismatch", Source: source,
				Detail: fmt.Sprintf("org %d at d=%.17g f=%.17g, %s: incremental %.17g, direct %.17g", i, s.D, s.F, asked, got, want),
				Delta:  math.Abs(got - want),
			})
			ok = false
		}
	}
	n := cfg.N()
	bound := make([]float64, n)
	for i := range bound {
		bound[i] = cfg.Payoff(i, p)
		same(ev.Payoff(i), bound[i], i, p[i], "bound")
	}
	src := randx.New(seed)
	work := p.Clone()
	for k := 0; k < deviations; k++ {
		i := src.Intn(n)
		levels := cfg.Orgs[i].CPULevels
		f := levels[src.Intn(len(levels))]
		lo, hi, feasible := cfg.FeasibleD(i, f)
		if !feasible {
			continue
		}
		s := game.Strategy{D: src.Uniform(lo, hi), F: f}
		work[i] = s
		want := cfg.Payoff(i, work)
		work[i] = p[i]
		same(ev.PayoffWith(i, s), want, i, s, "alone")
		for _, q := range [...]struct {
			a, b         game.Strategy
			wantA, wantB float64
		}{{s, p[i], want, bound[i]}, {p[i], s, bound[i], want}, {s, s, want, want}} {
			first, second := ev.PayoffWithPair(i, q.a, q.b)
			same(first, q.wantA, i, q.a, "first of a pair")
			same(second, q.wantB, i, q.b, "second of a pair")
		}
	}
	return ok
}

// CheckIncremental binds a fresh DeltaEvaluator to p and runs
// CheckEvaluator against it.
func (a *Auditor) CheckIncremental(cfg *game.Config, p game.Profile, deviations int, seed int64, source string) bool {
	ev := game.NewDeltaEvaluator(cfg)
	ev.Bind(p)
	return a.CheckEvaluator(cfg, ev, p, deviations, seed, source)
}
