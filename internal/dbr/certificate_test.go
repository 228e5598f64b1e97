package dbr

import (
	"math"
	"math/rand"
	"testing"

	"tradefl/internal/accuracy"
	"tradefl/internal/comm"
	"tradefl/internal/game"
	"tradefl/internal/optimize"
)

// certModels are the accuracy models the certificate is checked on; the
// equivalence test requires both outcomes — certified and searched — on each.
var certModels = []string{"sqrt-loss", "power-law", "log-saturation"}

// pick returns one of vs.
func pick(r *rand.Rand, vs ...float64) float64 { return vs[r.Intn(len(vs))] }

// logUniform draws from [lo, hi] uniformly in the exponent.
func logUniform(r *rand.Rand, lo, hi float64) float64 {
	return lo * math.Pow(hi/lo, r.Float64())
}

// hostileConfig draws a valid game built to stress the endpoint certificate:
// every model, personalization on and off, γ = 0, feasible intervals from
// a point to all of [D_min, 1], and — one draw in four — sample counts so
// small that Ω sits under SqrtLoss.OmegaFloor, where the payoff is not
// concave. ok is false when the draw fails Validate.
func hostileConfig(r *rand.Rand, model string) (*game.Config, bool) {
	n := 2 + r.Intn(9)
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

// certOutcome counts candidates by how they were answered.
type certOutcome struct{ certified, searched int }

// checkCertificate compares, bit for bit, every candidate of every scan
// against profile p with the search alone — optimize.GoldenSection over
// from-scratch Config.Payoff evaluations — and then Solve with solveNaive.
func checkCertificate(t *testing.T, cfg *game.Config, p game.Profile, dTol float64, out *certOutcome) {
	t.Helper()
	eng := NewEngine(cfg)
	eng.Bind(p)
	work := p.Clone()
	for i, o := range cfg.Orgs {
		for _, f := range o.CPULevels {
			lo, hi, feasible := cfg.FeasibleD(i, f)
			got, certified := eng.solveCandidate(i, f, dTol)
			if got.feasible != feasible {
				t.Fatalf("org %d f=%g: feasible %v, want %v", i, f, got.feasible, feasible)
			}
			if !feasible {
				continue
			}
			d, val, _ := optimize.GoldenSection(func(d float64) float64 {
				work[i] = game.Strategy{D: d, F: f}
				return cfg.Payoff(i, work)
			}, lo, hi, dTol)
			work[i] = p[i]
			if got.s.D != d || got.s.F != f || math.Float64bits(got.val) != math.Float64bits(val) {
				t.Fatalf("%s N=%d org %d f=%g [%g, %g] tol=%g certified=%v: (%v, %x), search gives (%v, %x)",
					cfg.Accuracy.Name(), cfg.N(), i, f, lo, hi, dTol, certified, got.s.D, math.Float64bits(got.val), d, math.Float64bits(val))
			}
			if certified {
				out.certified++
			} else {
				out.searched++
			}
		}
	}
	opts := Options{DTol: dTol, MaxRounds: 12}
	res, err := Solve(cfg, nil, opts)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if got, want := resultHash(res), resultHash(solveNaive(cfg, opts)); got != want {
		t.Fatalf("%s N=%d tol=%g: Solve hash %s, search alone gives %s", cfg.Accuracy.Name(), cfg.N(), dTol, got, want)
	}
}

// certTols spans the tolerances a caller can pass: the documented range,
// the certificate's floor and its neighbours, and values under one ulp of d.
var certTols = []float64{1e-3, 1e-5, 1e-7, 1e-9, minCertTol, minCertTol / 2, 1e-12, 1e-17, 1e-300}

// TestCertificateEquivalence is the certificate's contract: over hostile
// valid games it never changes a candidate or a solve by one bit, and on
// every model it both certifies and falls back.
func TestCertificateEquivalence(t *testing.T) {
	configs := 60
	if testing.Short() {
		configs = 15
	}
	for _, model := range certModels {
		r := rand.New(rand.NewSource(int64(len(model))))
		var out certOutcome
		for k := 0; k < configs; k++ {
			cfg, ok := hostileConfig(r, model)
			if !ok {
				continue
			}
			checkCertificate(t, cfg, hostileProfile(r, cfg), certTols[k%len(certTols)], &out)
		}
		t.Logf("%s: %d candidates certified, %d searched", model, out.certified, out.searched)
		if out.certified == 0 || out.searched == 0 {
			t.Errorf("%s: certified %d and searched %d candidates; the test must exercise both", model, out.certified, out.searched)
		}
	}
}

// TestCertificateThinMargins puts the upper end of a feasible interval
// within a few tolerances of an interior maximizer, where the payoff's
// slope times tol/4 is of the order of its rounding error: the search's
// pick between its midpoint and hi is then decided by noise, and only the
// 4E margin keeps the certificate from answering for it.
func TestCertificateThinMargins(t *testing.T) {
	const tol = 1e-7
	var out certOutcome
	interior := 0
	for seed := int64(1); seed <= 4; seed++ {
		cfg, err := game.DefaultConfig(game.GenOptions{Seed: seed, N: 8})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Personal = game.Personalization{Alpha: 0.3, LocalBoost: 1.5}
		p := cfg.MinimalProfile()
		for i := range cfg.Orgs {
			o := &cfg.Orgs[i]
			f := o.CPULevels[len(o.CPULevels)-1]
			lo, hi, _ := cfg.FeasibleD(i, f)
			work := p.Clone()
			d, _, _ := optimize.GoldenSection(func(d float64) float64 {
				work[i] = game.Strategy{D: d, F: f}
				return cfg.Payoff(i, work)
			}, lo, hi, tol)
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
				checkCertificate(t, cfg, p, tol, &out)
			}
			o.Comm = saved
		}
	}
	t.Logf("%d interior maximizers; %d candidates certified, %d searched", interior, out.certified, out.searched)
	if interior == 0 {
		t.Error("no interior maximizer found; the test exercises nothing")
	}
}

// TestCertificateRefusesUnderOmegaFloor: with Ω under SqrtLoss.OmegaFloor
// the model is level and then rises — Eq. (5) fails, the payoff can dip
// before it climbs — so nothing may be certified, whatever the margins say.
func TestCertificateRefusesUnderOmegaFloor(t *testing.T) {
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
	var out certOutcome
	checkCertificate(t, cfg, cfg.MinimalProfile(), 1e-7, &out)
	if out.certified != 0 {
		t.Errorf("%d candidates certified under the floor, want 0", out.certified)
	}
}

// TestCertifiedCounter: tradefl_dbr_certified_candidates_total moves by the
// number of candidates the certificate answered, beside the candidate count.
func TestCertifiedCounter(t *testing.T) {
	cfg := defaultGame(t, 3)
	eng := NewEngine(cfg)
	eng.Bind(cfg.MinimalProfile())
	var want int64
	for _, f := range cfg.Orgs[0].CPULevels {
		if _, certified := eng.solveCandidate(0, f, 1e-7); certified {
			want++
		}
	}
	if want == 0 {
		t.Fatal("no candidate of the default game certified; the counter would not be exercised")
	}
	cands, cert := mCandidates.Value(), mCertified.Value()
	eng.BestResponse(0, 1e-7)
	if got := mCandidates.Value() - cands; got != int64(len(cfg.Orgs[0].CPULevels)) {
		t.Errorf("candidates moved by %d, want %d", got, len(cfg.Orgs[0].CPULevels))
	}
	if got := mCertified.Value() - cert; got != want {
		t.Errorf("certified candidates moved by %d, want %d", got, want)
	}
	// A tolerance under the certificate's floor is searched: no movement.
	cert = mCertified.Value()
	eng.BestResponse(0, minCertTol/2)
	if got := mCertified.Value() - cert; got != 0 {
		t.Errorf("certified candidates moved by %d under minCertTol, want 0", got)
	}
}

// FuzzCertificateEquivalence lets the fuzzer pick the game (seed, model)
// and the tolerance; scripts/ci.sh runs it for a few seconds.
func FuzzCertificateEquivalence(f *testing.F) {
	for i, tol := range certTols {
		f.Add(int64(i), uint8(i), tol)
	}
	f.Fuzz(func(t *testing.T, seed int64, model uint8, dTol float64) {
		if !(dTol > 0 && dTol <= 1) {
			return
		}
		r := rand.New(rand.NewSource(seed))
		cfg, ok := hostileConfig(r, certModels[int(model)%len(certModels)])
		if !ok {
			return
		}
		var out certOutcome
		checkCertificate(t, cfg, hostileProfile(r, cfg), dTol, &out)
	})
}

// TestCertificateTiersKeepDecisions solves a corpus and pins what its scans
// decided — best responses, candidates, certified candidates and moves —
// to the counts recorded when every scan built the exact bound, beside how
// many scans build it now: under 1% unpersonalized, every scan of a
// personalized game, which has no per-solve bound. Only that last count
// may move with the per-solve bound, and any change to it shows here.
func TestCertificateTiersKeepDecisions(t *testing.T) {
	for _, c := range []struct {
		n     int
		alpha float64
		want  [5]int64 // scans, candidates, certified, moves, exact bounds built
	}{
		{8, 0, [5]int64{864, 2592, 2463, 409, 0}},
		{8, 0.3, [5]int64{848, 2544, 1372, 406, 848}},
		{24, 0, [5]int64{2544, 7632, 7580, 1207, 22}},
		{24, 0.3, [5]int64{2880, 8640, 5587, 1228, 2880}},
		{40, 0, [5]int64{4200, 12600, 12560, 2005, 26}},
		{40, 0.3, [5]int64{5240, 15720, 10202, 2052, 5240}},
	} {
		count := func() [5]int64 {
			return [5]int64{mScans.Value(), mCandidates.Value(), mCertified.Value(), mMoves.Value(), exactBounds.Load()}
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
			t.Errorf("N=%d α=%v: scans, candidates, certified, moves, exact bounds = %v, want %v", c.n, c.alpha, got, c.want)
		}
	}
}

// FuzzCoarseErrBoundDominates holds the per-solve tier to its contract on
// hostile games: it refuses wherever ErrBound refuses and is otherwise at
// least ErrBound's value, at every organization and level of a random
// profile; scripts/ci.sh runs it for a few seconds.
func FuzzCoarseErrBoundDominates(f *testing.F) {
	for i := range certModels {
		f.Add(int64(i), uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed int64, model uint8) {
		r := rand.New(rand.NewSource(seed))
		cfg, ok := hostileConfig(r, certModels[int(model)%len(certModels)])
		if !ok {
			return
		}
		ev := game.NewDeltaEvaluator(cfg)
		ev.Bind(hostileProfile(r, cfg))
		for i, o := range cfg.Orgs {
			for _, f := range o.CPULevels {
				_, hi, feasible := cfg.FeasibleD(i, f)
				if !feasible {
					continue
				}
				s := game.Strategy{D: hi, F: f}
				exact, eok := ev.ErrBound(i, s)
				if coarse, cok := ev.CoarseErrBound(i, s); cok && !(eok && coarse >= exact) {
					t.Fatalf("%s N=%d org %d f=%g: per-solve bound %g, ErrBound (%g, %v)", cfg.Accuracy.Name(), cfg.N(), i, f, coarse, exact, eok)
				}
			}
		}
	})
}
