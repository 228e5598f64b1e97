package dbr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tradefl/internal/accuracy"
	"tradefl/internal/comm"
	"tradefl/internal/game"
)

// closedModels are the accuracy models the closed form is checked on.
var closedModels = []string{"sqrt-loss", "power-law", "log-saturation"}

// pick returns one of vs.
func pick(r *rand.Rand, vs ...float64) float64 { return vs[r.Intn(len(vs))] }

// logUniform draws from [lo, hi] uniformly in the exponent.
func logUniform(r *rand.Rand, lo, hi float64) float64 {
	return lo * math.Pow(hi/lo, r.Float64())
}

// hostileConfig draws a valid game of n organizations built to stress the
// closed form: heterogeneous p (four decades) and ρ (a uniform intensity
// under a uniform cap), every model, personalization on and off, γ = 0,
// feasible intervals from a point to all of [D_min, 1], and — one draw in
// four — sample counts so small that Ω sits under SqrtLoss.OmegaFloor,
// where the payoff is not concave. ok is false when the draw fails Validate.
func hostileConfig(r *rand.Rand, model string, n int) (*game.Config, bool) {
	tiny := r.Intn(4) == 0
	cfg := &game.Config{
		Orgs:           make([]game.Organization, n),
		Rho:            make([][]float64, n),
		Gamma:          pick(r, 0, 1e-9, game.DefaultGamma, 1e-6),
		Lambda:         pick(r, 0, game.DefaultLambda),
		EnergyWeight:   pick(r, 0, game.DefaultEnergyWeight, 10),
		DMin:           pick(r, 0.01, 0.01, 0.3, 0.999, 1),
		OmegaInSamples: r.Intn(4) != 0,
	}
	if r.Intn(2) == 0 {
		cfg.Personal = game.Personalization{Alpha: 0.05 + 0.85*r.Float64(), LocalBoost: pick(r, 0, 1.5, 3)}
	}
	var omegaTop float64
	for i := range cfg.Orgs {
		levels := make([]float64, 1+r.Intn(4))
		f := logUniform(r, 1e8, 4e9)
		for k := range levels {
			levels[k] = f
			f *= 1 + r.Float64()
		}
		samples := float64(1000 + r.Intn(1000))
		if tiny {
			samples = logUniform(r, 1e-5, 1)
		}
		cfg.Orgs[i] = game.Organization{
			DataBits:      logUniform(r, 1e6, 1e11),
			Samples:       samples,
			Profitability: logUniform(r, 1, 1e4),
			CPULevels:     levels,
			Quality:       pick(r, 0, 0, 0.5, 1),
			Comm: comm.Profile{
				DownloadTime:  game.DefaultTransferTime,
				UploadTime:    game.DefaultTransferTime,
				CyclesPerBit:  pick(r, 0.5, 1, 20),
				DownloadPower: game.DefaultTransferPower,
				UploadPower:   game.DefaultTransferPower,
				Kappa:         logUniform(r, 1e-29, 1e-26),
			},
		}
		omegaTop += cfg.OmegaScale(i)
	}
	// The tightest deadline that keeps every organization's fastest level
	// feasible at D_min, stretched by up to 1/D_min^1.2: some (organization,
	// level) pairs capped between D_min and 1 — down to a single point —
	// others free, slow levels infeasible.
	var need float64
	for _, o := range cfg.Orgs {
		need = math.Max(need, o.Comm.CyclesPerBit*cfg.DMin*o.DataBits/o.CPULevels[len(o.CPULevels)-1])
	}
	cfg.Deadline = 2*game.DefaultTransferTime + need*math.Pow(1/cfg.DMin, 1.2*r.Float64())
	mu := r.Float64()
	for i := range cfg.Rho {
		cfg.Rho[i] = make([]float64, n)
		for j := 0; j < i; j++ {
			cfg.Rho[i][j] = mu * r.Float64()
			cfg.Rho[j][i] = cfg.Rho[i][j]
		}
	}
	cfg.NormalizeRho(pick(r, 0.02, 0.3))

	unit := pick(r, 1, game.DefaultOmegaUnit)
	var inner accuracy.Model
	switch model {
	case "sqrt-loss":
		inner = accuracy.NewSqrtLoss(game.DefaultEpochs, game.DefaultA0)
	case "power-law":
		inner, _ = accuracy.NewPowerLaw(logUniform(r, 0.01, 10), 0.05+0.9*r.Float64())
	case "log-saturation":
		inner, _ = accuracy.NewLogSaturation(logUniform(r, 0.01, 10), logUniform(r, 1e-3, 1e3)*omegaTop/unit)
	}
	cfg.Accuracy = inner
	if unit != 1 || r.Intn(2) == 0 {
		cfg.Accuracy, _ = accuracy.NewScaled(inner, unit)
	}
	return cfg, cfg.Validate() == nil
}

// hostileProfile draws a feasible profile, or the minimal one when an
// organization has no feasible level but its fastest.
func hostileProfile(r *rand.Rand, cfg *game.Config) game.Profile {
	p := cfg.MinimalProfile()
	for i, o := range cfg.Orgs {
		f := o.CPULevels[r.Intn(len(o.CPULevels))]
		if lo, hi, ok := cfg.FeasibleD(i, f); ok {
			p[i] = game.Strategy{D: lo + (hi-lo)*r.Float64(), F: f}
		}
	}
	return p
}

// closedOutcome counts candidates by the path that answered them, and the
// largest |Δd| from the search seen at a closed-form one.
type closedOutcome struct {
	closed, searched int
	maxDD            float64
	flat             int // closed-form candidates over 1e-6 from the search
}

// slope returns C′ at organization i's strategy s in p, from the model's
// Derivative — z_i·a_i·P′(Ω₋ᵢ + a_i·d) + b — and |b|, the scale of its
// two terms.
func slope(cfg *game.Config, p game.Profile, i int, s game.Strategy) (float64, float64) {
	work := p.Clone()
	work[i] = s
	var rowG float64
	for j := range p {
		if j != i {
			rowG += cfg.Gamma * cfg.Rho[i][j]
		}
	}
	o := &cfg.Orgs[i]
	credit := cfg.DataCredit(i)
	b := rowG*credit - cfg.EnergyWeight*o.Comm.Kappa*s.F*s.F*o.Comm.CyclesPerBit*o.DataBits
	a := cfg.OmegaScale(i)
	return cfg.Weight(i)*a*cfg.Accuracy.Derivative(cfg.OmegaExcluding(work, i)+a*s.D) + b, math.Abs(b)
}

// roundingBound bounds |PayoffWith − C| at organization i's strategy s in
// p, C being Eq. (11) in real arithmetic: (4N+32)·2⁻⁵³ times the payoff's
// magnitude M, the sum of its addends' magnitudes — (p_i + 2·dmg_i)·S for
// the three P terms, S = |P(Ω)| + |P(Ω₋ᵢ)| + 2.5 (the 2.5 ≥ 2·A0 covers
// the cancellation in sqrt-loss's A0 − A) plus P′(Ω₋ᵢ)·Ω for the error of
// the Ω folds, ϖ_e·E_i and Σ_j γ·ρ_ij·(x_i + x_j). No addend takes more
// than N+10 roundings and no Ω fold is off by more than (N+2)·2⁻⁵³·Ω, so
// the factor has 2× in hand.
func roundingBound(cfg *game.Config, p game.Profile, i int, s game.Strategy) float64 {
	work := p.Clone()
	work[i] = s
	omega, rest := cfg.Omega(work), cfg.OmegaExcluding(work, i)
	var dmg, redist float64
	xi := cfg.ContributionIndex(i, s)
	for j := range cfg.Orgs {
		dmg += cfg.Rho[i][j] * cfg.Orgs[j].Profitability
		redist += cfg.Gamma * cfg.Rho[i][j] * (xi + cfg.ContributionIndex(j, work[j]))
	}
	acc := cfg.Accuracy
	spread := math.Abs(acc.Value(omega)) + math.Abs(acc.Value(rest)) + 2.5 + acc.Derivative(rest)*omega
	mag := (cfg.Orgs[i].Profitability+2*dmg)*spread + cfg.EnergyWeight*cfg.Energy(i, s) + redist
	return (4*float64(cfg.N()) + 32) * 0x1p-53 * mag
}

// checkClosedForm holds every candidate of every scan against profile p to
// the search alone — searchNaive, golden section over from-scratch
// Config.Payoff at dTol — and Solve to the from-scratch reference, bit for
// bit. A closed-form candidate's payoff must carry Config.Payoff's bits at
// its d; the d must meet the first-order condition by the model's
// Derivative (C′ = 0 inside the interval, ≤ 0 at lo, ≥ 0 at hi, to 1e-9 of
// |b|); its payoff must be no more than the two points' rounding bounds
// under the search's; and its d within 1e-6 of the search's, unless the
// search stopped in a flat the rounding bound covers: ½·|C′(d_s)|·|Δd|, the
// concave payoff's drop from its maximizer to the search's d, at most the
// bound. A searched candidate must be the search's, bit for bit.
func checkClosedForm(t *testing.T, cfg *game.Config, p game.Profile, dTol float64, out *closedOutcome) {
	t.Helper()
	eng := NewEngine(cfg)
	eng.Bind(p)
	work := p.Clone()
	for i, o := range cfg.Orgs {
		eng.BestResponse(i, dTol)
		closed := eng.ev.FirstOrder(i)
		for k, f := range o.CPULevels {
			got, want := eng.cands[k], searchNaive(cfg, p, i, f, dTol)
			if got.feasible != want.feasible {
				t.Fatalf("org %d f=%g: feasible %v, want %v", i, f, got.feasible, want.feasible)
			}
			if !got.feasible {
				continue
			}
			if !closed {
				out.searched++
				if got.s != want.s || math.Float64bits(got.val) != math.Float64bits(want.val) {
					t.Fatalf("%s N=%d org %d f=%g: searched (%v, %x), the search gives (%v, %x)",
						cfg.Accuracy.Name(), cfg.N(), i, f, got.s.D, math.Float64bits(got.val), want.s.D, math.Float64bits(want.val))
				}
				continue
			}
			out.closed++
			work[i] = got.s
			if v := cfg.Payoff(i, work); got.s.F != f || math.Float64bits(got.val) != math.Float64bits(v) {
				t.Fatalf("%s N=%d org %d f=%g: candidate (%+v, %x), Config.Payoff there %x", cfg.Accuracy.Name(), cfg.N(), i, f, got.s, math.Float64bits(got.val), math.Float64bits(v))
			}
			work[i] = p[i]
			lo, hi, _ := cfg.FeasibleD(i, f)
			if c, b := slope(cfg, p, i, got.s); !(got.s.D >= hi || c <= 1e-9*b) || !(got.s.D <= lo || c >= -1e-9*b) {
				t.Fatalf("%s N=%d org %d f=%g [%g, %g]: d=%v is not stationary: C′ = %g (|b| %g)", cfg.Accuracy.Name(), cfg.N(), i, f, lo, hi, got.s.D, c, b)
			}
			slack := roundingBound(cfg, p, i, got.s) + roundingBound(cfg, p, i, want.s)
			dd := math.Abs(got.s.D - want.s.D)
			out.maxDD = max(out.maxDD, dd)
			// Past 1e-6 the search must have stopped where the payoff is
			// too flat for floats to tell its d from the maximizer.
			ds, _ := slope(cfg, p, i, want.s)
			if !(got.val >= want.val-slack) || !(dd <= 1e-6 || math.Abs(ds)*dd/2 <= slack) {
				t.Fatalf("%s N=%d α=%v org %d f=%g [%g, %g]: closed form d=%v payoff %v, search d=%v payoff %v (Δd %.3g, payoff short by %.3g, rounding bound %.3g, C′ at the search's d %.3g)",
					cfg.Accuracy.Name(), cfg.N(), cfg.Personal.Alpha, i, f, lo, hi, got.s.D, got.val, want.s.D, want.val, dd, want.val-got.val, slack, ds)
			}
			if dd > 1e-6 {
				out.flat++
			}
		}
	}
	opts := Options{DTol: dTol, MaxRounds: 12}
	res, err := Solve(cfg, nil, opts)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if got, want := resultHash(res), resultHash(solveNaive(cfg, opts)); got != want {
		t.Fatalf("%s N=%d: Solve hash %s, the from-scratch reference gives %s", cfg.Accuracy.Name(), cfg.N(), got, want)
	}
}

// TestClosedFormMatchesSearch is the closed form's contract over generated
// draws (N = 3…40, α = 0 and 0.3, at the paper's start and a random
// feasible profile) and heterogeneous draws of every model: each candidate
// meets checkClosedForm's bounds against the search, and both paths run.
func TestClosedFormMatchesSearch(t *testing.T) {
	var out closedOutcome
	r := rand.New(rand.NewSource(56))
	for n := 3; n <= 40; n++ {
		for _, alpha := range []float64{0, 0.3} {
			cfg, err := game.DefaultConfig(game.GenOptions{Seed: int64(n), N: n})
			if err != nil {
				t.Fatal(err)
			}
			if alpha > 0 {
				cfg.Personal = game.Personalization{Alpha: alpha, LocalBoost: 1.5}
			}
			checkClosedForm(t, cfg, cfg.MinimalProfile(), 1e-7, &out)
			checkClosedForm(t, cfg, hostileProfile(r, cfg), 1e-7, &out)
		}
	}
	t.Logf("generated: %d candidates closed-form, %d searched, max |Δd| %.3g, %d over 1e-6 in a flat", out.closed, out.searched, out.maxDD, out.flat)
	configs := 40
	if testing.Short() {
		configs = 10
	}
	for _, model := range closedModels {
		r := rand.New(rand.NewSource(int64(len(model))))
		var out closedOutcome
		for k := 0; k < configs; k++ {
			cfg, ok := hostileConfig(r, model, 3+r.Intn(38))
			if !ok {
				continue
			}
			checkClosedForm(t, cfg, hostileProfile(r, cfg), 1e-7, &out)
		}
		t.Logf("%s: %d candidates closed-form, %d searched, max |Δd| %.3g, %d over 1e-6 in a flat", model, out.closed, out.searched, out.maxDD, out.flat)
		if out.closed == 0 || out.searched == 0 {
			t.Errorf("%s: %d closed-form and %d searched candidates; the test must exercise both", model, out.closed, out.searched)
		}
	}
}

// TestClosedFormAtThinMargins puts the upper end of a feasible interval
// within a few search tolerances of an interior maximizer, either side:
// the closed form's clamp to hi must agree with where the search ends.
func TestClosedFormAtThinMargins(t *testing.T) {
	const tol = 1e-7
	var out closedOutcome
	interior := 0
	for seed := int64(1); seed <= 4; seed++ {
		cfg, err := game.DefaultConfig(game.GenOptions{Seed: seed, N: 8, Gamma: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		p := cfg.MinimalProfile()
		for i := range cfg.Orgs {
			o := &cfg.Orgs[i]
			f := o.CPULevels[len(o.CPULevels)-1]
			lo, hi, _ := cfg.FeasibleD(i, f)
			d := searchNaive(cfg, p, i, f, tol).s.D
			if d <= lo+1e-3 || d >= hi-1e-3 {
				continue
			}
			interior++
			// Move the deadline cap of (i, f) to d + k·tol through η_i,
			// holding κ_i·η_i — the energy, hence the maximizer — fixed.
			saved := o.Comm
			for _, k := range []float64{-4, -1, -0.5, -0.3, -0.1, 0, 0.1, 0.2, 0.3, 0.5, 1, 4} {
				budget := cfg.Deadline - saved.DownloadTime - saved.UploadTime
				o.Comm.CyclesPerBit = budget * f / ((d + k*tol) * o.DataBits)
				o.Comm.Kappa = saved.Kappa * saved.CyclesPerBit / o.Comm.CyclesPerBit
				checkClosedForm(t, cfg, p, tol, &out)
			}
			o.Comm = saved
		}
	}
	t.Logf("%d interior maximizers; %d candidates closed-form, %d searched, max |Δd| %.3g", interior, out.closed, out.searched, out.maxDD)
	if interior == 0 {
		t.Error("no interior maximizer found; the test exercises nothing")
	}
}

// TestClosedFormUnderOmegaFloor: with Ω under SqrtLoss.OmegaFloor the
// model is level and then rises — Eq. (5) fails, the payoff can dip
// before it climbs — so every level is searched.
func TestClosedFormUnderOmegaFloor(t *testing.T) {
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: 5, N: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfg.Orgs {
		cfg.Orgs[i].Samples = 1e-5 // Ω ≤ 6e-5 samples = 6e-8 kilosamples, under the 1e-6 floor
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	var out closedOutcome
	checkClosedForm(t, cfg, cfg.MinimalProfile(), 1e-7, &out)
	if out.closed != 0 || out.searched == 0 {
		t.Errorf("%d candidates closed-form, %d searched under the floor; want 0 and some", out.closed, out.searched)
	}
}

// FuzzClosedFormMatchesSearch lets the fuzzer pick the game (seed, model,
// size) and the profile; scripts/ci.sh runs it for a few seconds.
func FuzzClosedFormMatchesSearch(f *testing.F) {
	for i := 0; i < 9; i++ {
		f.Add(int64(i), uint8(i), uint8(3+4*i))
	}
	f.Fuzz(func(t *testing.T, seed int64, model, n uint8) {
		r := rand.New(rand.NewSource(seed))
		cfg, ok := hostileConfig(r, closedModels[int(model)%len(closedModels)], 3+int(n)%38)
		if !ok {
			return
		}
		var out closedOutcome
		checkClosedForm(t, cfg, hostileProfile(r, cfg), 1e-7, &out)
	})
}

// TestNashAtFixedPoint: on 50 generated draws at each N = 3…40, and on
// heterogeneous ones, DBR's fixed point is a Nash equilibrium to 1e-8 on
// CheckNash's 60-point grid, personalized or not.
func TestNashAtFixedPoint(t *testing.T) {
	seeds := int64(50)
	if testing.Short() {
		seeds = 5
	}
	check := func(cfg *game.Config, label string) {
		res, err := Solve(cfg, nil, Options{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !res.Converged {
			t.Fatalf("%s: no fixed point in %d sweeps", label, res.Rounds)
		}
		if rep := cfg.CheckNash(res.Profile, 60, 1e-8); !rep.IsNash {
			t.Fatalf("%s: %v", label, rep)
		}
	}
	for n := 3; n <= 40; n++ {
		for seed := int64(1); seed <= seeds; seed++ {
			cfg, err := game.DefaultConfig(game.GenOptions{Seed: seed, N: n})
			if err != nil {
				t.Fatal(err)
			}
			if seed%5 == 0 {
				cfg.Personal = game.Personalization{Alpha: 0.3, LocalBoost: 1.5}
			}
			check(cfg, fmt.Sprintf("N=%d seed %d α=%v", n, seed, cfg.Personal.Alpha))
		}
	}
	r := rand.New(rand.NewSource(7))
	for k := 0; k < 60; k++ {
		cfg, ok := hostileConfig(r, closedModels[k%len(closedModels)], 3+r.Intn(38))
		if ok {
			check(cfg, fmt.Sprintf("heterogeneous draw %d (%s, N=%d)", k, cfg.Accuracy.Name(), cfg.N()))
		}
	}
}

// TestCountersAddOncePerSolve: a solve adds its scans, candidates and
// payoff evaluations to the dbr counters once, after its last sweep — the
// audit hook, which runs before the solve returns, sees them unmoved —
// and the totals are a scan per organization per sweep, every level a
// candidate, and a closed-form game's evaluations one per feasible
// candidate plus a walk for each scan that did not probe the bound
// strategy; a personalized game searches, ~40 walks a candidate.
func TestCountersAddOncePerSolve(t *testing.T) {
	for _, alpha := range []float64{0, 0.3} {
		cfg := defaultGame(t, 3)
		if alpha > 0 {
			cfg.Personal = game.Personalization{Alpha: alpha, LocalBoost: 1.5}
		}
		count := func() [3]int64 { return [3]int64{mScans.Value(), mCandidates.Value(), mEvals.Value()} }
		before := count()
		var atAudit [3]int64
		SetAuditHook(func(*game.Config, *Result, Options) { atAudit = count() })
		res, err := Solve(cfg, nil, Options{})
		SetAuditHook(nil)
		if err != nil {
			t.Fatal(err)
		}
		if atAudit != before {
			t.Errorf("α=%v: counters moved %v → %v during the solve", alpha, before, atAudit)
		}
		after := count()
		scans, cands, evals := after[0]-before[0], after[1]-before[1], after[2]-before[2]
		levels := 0
		for _, o := range cfg.Orgs {
			levels += len(o.CPULevels)
		}
		if want := int64(res.Rounds * cfg.N()); scans != want {
			t.Errorf("α=%v: %d scans, want %d sweeps × %d organizations", alpha, scans, res.Rounds, cfg.N())
		}
		if want := int64(res.Rounds * levels); cands != want {
			t.Errorf("α=%v: %d candidates, want %d", alpha, cands, want)
		}
		if alpha == 0 && !(evals >= cands-scans && evals <= cands+scans) {
			t.Errorf("α=0: %d payoff evaluations for %d candidates in %d scans, want about one a candidate", evals, cands, scans)
		}
		if alpha > 0 && !(evals >= 30*(cands-scans)) {
			t.Errorf("α=%v: %d payoff evaluations for %d candidates, want a search's ~40 each", alpha, evals, cands)
		}
		t.Logf("α=%v: %d scans, %d candidates, %d payoff evaluations", alpha, scans, cands, evals)
	}
}

// TestClosedFormKeepsDecisions solves a corpus and pins what its scans
// decided — best responses, candidates, payoff evaluations and moves. The
// personalized rows' scans, candidates and moves are the counts recorded
// under the endpoint certificate, which the search reproduces bit for bit;
// the unpersonalized rows' scans and moves too, though their interior d
// now come from the first-order condition.
func TestClosedFormKeepsDecisions(t *testing.T) {
	for _, c := range []struct {
		n     int
		alpha float64
		want  [4]int64 // scans, candidates, payoff evaluations, moves
	}{
		{8, 0, [4]int64{864, 2592, 2660, 409}},
		{8, 0.3, [4]int64{848, 2544, 99125, 406}},
		{24, 0, [4]int64{2544, 7632, 7675, 1207}},
		{24, 0.3, [4]int64{2880, 8640, 336438, 1228}},
		{40, 0, [4]int64{4200, 12600, 12630, 2005}},
		{40, 0.3, [4]int64{5240, 15720, 611879, 2052}},
	} {
		count := func() [4]int64 {
			return [4]int64{mScans.Value(), mCandidates.Value(), mEvals.Value(), mMoves.Value()}
		}
		before := count()
		for seed := int64(1); seed <= 50; seed++ {
			cfg, err := game.DefaultConfig(game.GenOptions{Seed: seed, N: c.n})
			if err != nil {
				t.Fatal(err)
			}
			if c.alpha > 0 {
				cfg.Personal = game.Personalization{Alpha: c.alpha, LocalBoost: 1.5}
			}
			if _, err := Solve(cfg, nil, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		got := count()
		for k := range got {
			got[k] -= before[k]
		}
		if got != c.want {
			t.Errorf("N=%d α=%v: scans, candidates, payoff evaluations, moves = %v, want %v", c.n, c.alpha, got, c.want)
		}
	}
}
