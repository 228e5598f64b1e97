package game

import "tradefl/internal/accuracy"

// DeltaEvaluator answers "what is organization i's payoff when its strategy
// is replaced by x, everyone else unchanged?" in O(N) instead of the O(N²)
// a fresh Config.Payoff costs. It is the core of the incremental evaluation
// engine: a best-response scan asks exactly this question about the same
// organization i against the same π₋ᵢ for every CPU level — one probe a
// level when the first-order condition answers (Maximizer, two levels per
// PayoffWithPair walk), ~39 when the level is searched — so the evaluator
// focuses on one organization at a time and keeps everything that does not
// depend on the probed strategy out of the query.
//
// # Exactness contract
//
// Every result is byte-identical to Config.Payoff on the substituted
// profile — not merely close. A value is cached only if it is the value of
// the identical expression the naive path evaluates, with the same operands
// in the same association order; nothing is reassociated:
//
//   - static per-organization operands (scale_i, dmgCoef_i, the
//     contribution-index operands, E_comm_i) are each computed by the naive
//     path's own expression, so their bits agree;
//   - terms[j] = d_j·scale_j are the addends Config.Omega folds. Focus(i)
//     folds terms[0:i] left to right from zero — Omega's own first i partial
//     sums — and a query continues that fold with d·scale_i and terms[i+1:]
//     in index order, so Ω passes through exactly Omega's partial sums. An
//     O(1) "subtract old, add new" update would not; O(N−i) is the floor;
//   - g[j] = γ·ρ_ij is the left operand of Transfer's γ·ρ_ij·(x_i − x_j),
//     which Go evaluates as (γ·ρ_ij)·(x_i − x_j);
//   - P(Ω) is evaluated once and reused for both the revenue and the
//     damage gain, exactly as the naive path computes the same value twice;
//   - the redistribution fold visits every j in index order, including the
//     j = i zero term the naive Transfer contributes.
//
// The fuzz and equivalence tests assert bit-equality against Config.Payoff
// across random configs, profiles, focus changes and single-coordinate
// mutations; the differential harness in verify/diff_test.go audits every
// solved equilibrium the same way, and its mutation test proves the audit
// fires.
//
// A DeltaEvaluator is not safe for concurrent mutation, and a query about an
// organization other than the focused one moves the focus, which is a
// mutation. After Focus(i), concurrent PayoffWith(i, ·) queries are
// read-only and race-free until the next Bind/Update/Reset; FirstOrder is a
// mutation (it folds Ω₋ᵢ), Maximizer is not.
type DeltaEvaluator struct {
	cfg *Config
	acc accuracy.Model

	// The static per-organization rows (valid for the config's lifetime):
	// a loaded instance's own, read in place, or own's after Reset derived
	// them from a bare config.
	rows
	own rows

	gamma, lambda, energyWeight float64
	alpha, oneMinusAlpha, boost float64
	personal                    bool

	// Profile-bound caches (valid until the next Bind/Update).
	p     Profile   // private copy of the bound profile
	xs    []float64 // ContributionIndex(j, p[j]) for every j
	terms []float64 // p[j].D·scale[j], the addends of Ω

	// Focus caches (valid while focus ≥ 0; dropped by Bind/Update/Reset).
	focus  int       // focused organization, −1 when none
	prefix float64   // Σ_{j<focus} terms[j], folded left to right from zero
	g      []float64 // γ·ρ_ij for i = focus
	rest   float64   // Ω₋ᵢ of the focus, folded by FirstOrder

	// inv is the model's inverse derivative, nil when the game takes the
	// search: a personalized game or a model without one.
	inv accuracy.Invertible
}

// NewDeltaEvaluator builds an evaluator for cfg, a config Validate accepts.
// The config must remain unmodified for the evaluator's lifetime; call
// Reset after changing it.
func NewDeltaEvaluator(cfg *Config) *DeltaEvaluator {
	ev := &DeltaEvaluator{}
	ev.Reset(cfg)
	return ev
}

// Reset rebinds the evaluator to cfg, a config Validate accepts, deriving
// its rows with NewInstance's walk into arrays the evaluator keeps across
// Resets when the organization count allows. A solve loads an Instance
// instead, whose rows are already derived.
func (ev *DeltaEvaluator) Reset(cfg *Config) {
	_ = cfg.check(&ev.own) // a refused config leaves rows the contract does not cover
	ev.bind(cfg, ev.own)
}

// Load rebinds the evaluator to the instance in, reading its rows in place:
// nothing is checked or derived again.
func (ev *DeltaEvaluator) Load(in *Instance) { ev.bind(&in.cfg, in.rows) }

// bind points the evaluator at cfg and its rows r and sizes the profile
// caches, reusing their arrays when the organization count allows.
func (ev *DeltaEvaluator) bind(cfg *Config, r rows) {
	n := cfg.N()
	ev.cfg = cfg
	ev.acc = cfg.Accuracy
	ev.inv, _ = cfg.Accuracy.(accuracy.Invertible)
	if cfg.Personal.enabled() {
		ev.inv = nil
	}
	ev.rows = r
	for _, v := range [...]*[]float64{&ev.xs, &ev.terms, &ev.g} {
		if cap(*v) < n {
			*v = make([]float64, n)
		}
		*v = (*v)[:n]
	}
	if cap(ev.p) < n {
		ev.p = make(Profile, n)
	}
	ev.p = ev.p[:n]
	ev.focus = -1
	ev.gamma = cfg.Gamma
	ev.lambda = cfg.Lambda
	ev.energyWeight = cfg.EnergyWeight
	ev.alpha = cfg.Personal.Alpha
	ev.oneMinusAlpha = 1 - cfg.Personal.Alpha
	ev.boost = cfg.Personal.boost()
	ev.personal = cfg.Personal.enabled()
}

// Config returns the bound game configuration.
func (ev *DeltaEvaluator) Config() *Config { return ev.cfg }

// Bind points the evaluator at profile p (copied; the caller's slice is not
// retained), refreshes the per-organization aggregate caches in O(N) and
// drops the focus.
func (ev *DeltaEvaluator) Bind(p Profile) {
	copy(ev.p, p)
	for j := range ev.p {
		ev.xs[j] = ev.contribution(j, ev.p[j])
		ev.terms[j] = ev.p[j].D * ev.scale[j]
	}
	ev.focus = -1
}

// Update replaces the bound strategy of organization i in O(1), keeping the
// aggregate caches consistent, and drops the focus. Use it after a
// best-response move instead of re-binding the whole profile.
func (ev *DeltaEvaluator) Update(i int, s Strategy) {
	ev.p[i] = s
	ev.xs[i] = ev.contribution(i, s)
	ev.terms[i] = s.D * ev.scale[i]
	ev.focus = -1
}

// Bound returns the evaluator's private copy of the bound profile (read
// only; mutate through Update).
func (ev *DeltaEvaluator) Bound() Profile { return ev.p }

// contribution replicates Config.ContributionIndex bit-for-bit from cached
// operands: q_i·d_i·s_i + λ·f_i with the same association order.
func (ev *DeltaEvaluator) contribution(i int, s Strategy) float64 {
	return ev.q[i]*s.D*ev.bits[i] + ev.lambda*s.F
}

// energy replicates Config.Energy bit-for-bit: Comm.TotalEnergy's
// κ·f·f·η·d·s + E_comm, read in place rather than through a by-value copy
// of the comm profile.
func (ev *DeltaEvaluator) energy(i int, s Strategy) float64 {
	return ev.compute(i, s) + ev.commE[i]
}

// compute is Comm.ComputeEnergy's κ·f·f·η·d·s, read in place likewise.
func (ev *DeltaEvaluator) compute(i int, s Strategy) float64 {
	cp := &ev.cfg.Orgs[i].Comm
	return cp.Kappa * s.F * s.F * cp.CyclesPerBit * s.D * ev.bits[i]
}

// Focus caches, in O(N), everything a payoff query about organization i
// needs that does not depend on i's own strategy. It is a no-op when i is
// already focused. Callers that fan PayoffWith(i, ·) out over goroutines
// must call it first, on one goroutine.
func (ev *DeltaEvaluator) Focus(i int) {
	if ev.focus == i {
		return
	}
	var prefix float64
	for _, t := range ev.terms[:i] {
		prefix += t
	}
	ev.prefix = prefix
	row := ev.cfg.Rho[i]
	for j := range ev.g {
		ev.g[j] = ev.gamma * row[j]
	}
	ev.focus = i
}

// Interval is Config.FeasibleD(i, f) for organization i's k-th CPU level
// f, read off the rows.
func (ev *DeltaEvaluator) Interval(i, k int) (lo, hi float64, ok bool) {
	hi = ev.hi[i*ev.stride+k]
	return ev.cfg.DMin, hi, hi >= ev.cfg.DMin
}

// FirstOrder reports whether organization i's best response at each CPU
// level has Maximizer's closed form, and readies it by folding Ω₋ᵢ: the
// game is unpersonalized, its model has an inverse derivative, and
// Ω₋ᵢ + a_i·D_min lies in the model's concave domain, so the payoff
// z_i·P(Ω₋ᵢ + a_i·d) + b·d + const is concave in d over every interval.
// It moves the focus to i like any query.
func (ev *DeltaEvaluator) FirstOrder(i int) bool {
	if ev.focus != i {
		ev.Focus(i)
	}
	if ev.inv == nil {
		return false
	}
	rest := ev.prefix
	for _, t := range ev.terms[i+1:] {
		rest += t
	}
	ev.rest = rest
	return rest+ev.scale[i]*ev.cfg.DMin >= ev.inv.ConcaveFrom()
}

// Maximizer returns the d that maximizes the focused organization's payoff
// over Interval(focus, k), after FirstOrder(focus) reported true: hi when the
// slope b of the payoff's linear part is ≥ 0 (P is nondecreasing), else
// the Ω* with P′(Ω*) = −b/(z_i·a_i), as d = (Ω* − Ω₋ᵢ)/a_i clamped to
// the interval.
func (ev *DeltaEvaluator) Maximizer(k int) float64 {
	i := ev.focus
	at := i*ev.stride + k
	hi, b := ev.hi[at], ev.slope[at]
	if b >= 0 {
		return hi
	}
	a := ev.scale[i]
	omega := ev.inv.InverseDerivative(-b / (ev.z[i] * a))
	return max(ev.cfg.DMin, min(hi, (omega-ev.rest)/a))
}

// Payoff returns organization i's payoff at the bound profile,
// byte-identical to Config.Payoff(i, bound profile).
func (ev *DeltaEvaluator) Payoff(i int) float64 {
	return ev.PayoffWith(i, ev.p[i])
}

// PayoffWith returns organization i's payoff when its bound strategy is
// replaced by s (other organizations unchanged), byte-identical to
// Config.Payoff(i, p') where p' is the substituted profile. It moves the
// focus to i when some other organization (or none) is focused; against a
// focused i it is read-only and costs O(N) branch-free flops.
func (ev *DeltaEvaluator) PayoffWith(i int, s Strategy) float64 {
	if ev.focus != i {
		ev.Focus(i)
	}
	own := s.D * ev.scale[i]

	// Ω: Config.Omega's left-to-right fold, resumed at index i.
	omega := ev.prefix + own
	for _, t := range ev.terms[i+1:] {
		omega += t
	}
	rest := ev.beforeRedist(i, s, own, omega)

	// Redistribution: index-order fold over all j, split at i around the
	// zero term the naive Transfer contributes there.
	xi := ev.contribution(i, s)
	var redist float64
	g, xs := ev.g, ev.xs
	for j := 0; j < i; j++ {
		redist += g[j] * (xi - xs[j])
	}
	redist += 0
	for j := i + 1; j < len(xs); j++ {
		redist += g[j] * (xi - xs[j])
	}
	return rest + redist
}

// PayoffWithPair returns PayoffWith(i, a), PayoffWith(i, b): per value the
// same folds in PayoffWith's own association order, advanced side by side in
// one walk over the opponents. A fold is a chain of dependent additions that
// waits out an add latency per opponent; two independent chains fill that
// wait. A closed-form best response probes its levels in pairs
// (dbr.Engine.BestResponse).
func (ev *DeltaEvaluator) PayoffWithPair(i int, a, b Strategy) (float64, float64) {
	if ev.focus != i {
		ev.Focus(i)
	}
	ownA, ownB := a.D*ev.scale[i], b.D*ev.scale[i]
	omegaA, omegaB := ev.prefix+ownA, ev.prefix+ownB
	for _, t := range ev.terms[i+1:] {
		omegaA += t
		omegaB += t
	}
	restA, restB := ev.beforeRedist(i, a, ownA, omegaA), ev.beforeRedist(i, b, ownB, omegaB)
	xa, xb := ev.contribution(i, a), ev.contribution(i, b)
	redistA, redistB := redistPair(0, 0, xa, xb, ev.g[:i], ev.xs[:i])
	redistA, redistB = redistPair(redistA+0, redistB+0, xa, xb, ev.g[i+1:], ev.xs[i+1:]) // + 0: the j = i term
	return restA + redistA, restB + redistB
}

// redistPair continues two redistribution folds over the opponents whose
// γ·ρ_ij and x_j are g and xs.
func redistPair(ra, rb, xa, xb float64, g, xs []float64) (float64, float64) {
	g = g[:len(xs)]
	for j, x := range xs {
		da, db := xa-x, xb-x
		ra += g[j] * da
		rb += g[j] * db
	}
	return ra, rb
}

// beforeRedist returns Eq. (11) for organization i at strategy s short of
// its last addend, the redistribution sum, from own = d·scale_i and Ω; the
// square roots and divisions of P finish under the fold that follows.
func (ev *DeltaEvaluator) beforeRedist(i int, s Strategy, own, omega float64) float64 {
	perf := ev.acc.Value(omega)

	// Revenue: p_i·P (base) or p_i·[(1−α)·P + α·P_loc] (personalization),
	// reusing perf for the global component exactly as the naive path
	// evaluates the same Ω twice.
	var revenue float64
	if ev.personal {
		local := ev.acc.Value(ev.boost * s.D * ev.scale[i])
		revenue = ev.prof[i] * (ev.oneMinusAlpha*perf + ev.alpha*local)
	} else {
		revenue = ev.prof[i] * perf
	}

	// Damage: dmgCoef_i·[P(Ω) − P(Ω − d_i·scale_i)].
	gain := perf - ev.acc.Value(omega-own)
	damage := ev.dmgCoef[i] * gain

	return revenue -
		ev.energyWeight*ev.energy(i, s) -
		damage
}

// Potential returns U at the bound profile, byte-identical to Config.Potential
// there: its expression term by term, the static w_i and γ·ρ̄_i read from cache.
func (ev *DeltaEvaluator) Potential() float64 {
	var omega float64
	for _, t := range ev.terms {
		omega += t
	}
	u := ev.acc.Value(omega)
	for i, s := range ev.p {
		term := ev.gRowSum[i]*ev.xs[i] - ev.energyWeight*ev.compute(i, s)
		if ev.personal {
			term += ev.alpha * ev.prof[i] * ev.acc.Value(ev.boost*s.D*ev.scale[i])
		}
		u += term / ev.weight[i]
	}
	return u
}
