package dbr

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"tradefl/internal/accuracy"
	"tradefl/internal/game"
	"tradefl/internal/optimize"
)

// bestResponseNaive is the from-scratch reference of a best-response scan:
// the engine's candidate loop with every payoff evaluated by Config.Payoff
// in O(N²) — at each level the first-order condition's maximizer where the
// game has one (maximizerNaive), the golden-section search elsewhere
// (searchNaive). The engine must match it bit for bit.
func bestResponseNaive(cfg *game.Config, p game.Profile, i int, dTol float64) (game.Strategy, float64, bool) {
	work := p.Clone()
	var cands []candidate
	for _, f := range cfg.Orgs[i].CPULevels {
		_, hi, feasible := cfg.FeasibleD(i, f)
		if !feasible {
			continue
		}
		d, ok := maximizerNaive(cfg, p, i, f, hi)
		if !ok {
			cands = append(cands, searchNaive(cfg, p, i, f, dTol))
			continue
		}
		work[i] = game.Strategy{D: d, F: f}
		cands = append(cands, candidate{s: work[i], val: cfg.Payoff(i, work), feasible: true})
	}
	return reduceCandidates(cands)
}

// searchNaive is the oracle the closed form is held to: optimize.GoldenSection
// over organization i's feasible interval at CPU level f, every payoff a
// from-scratch Config.Payoff.
func searchNaive(cfg *game.Config, p game.Profile, i int, f, dTol float64) candidate {
	lo, hi, feasible := cfg.FeasibleD(i, f)
	if !feasible {
		return candidate{}
	}
	work := p.Clone()
	d, val, _ := optimize.GoldenSection(func(d float64) float64 {
		work[i] = game.Strategy{D: d, F: f}
		return cfg.Payoff(i, work)
	}, lo, hi, dTol)
	return candidate{s: game.Strategy{D: d, F: f}, val: val, feasible: true}
}

// maximizerNaive is DeltaEvaluator.FirstOrder and Maximizer from Config's
// own accessors: the payoff z_i·P(Ω₋ᵢ + a_i·d) + b·d + const of an
// unpersonalized game is maximized over [D_min, hi] at hi when b ≥ 0 and
// otherwise where P′ = −b/(z_i·a_i). ok is false where the engine searches.
func maximizerNaive(cfg *game.Config, p game.Profile, i int, f, hi float64) (float64, bool) {
	inv, ok := cfg.Accuracy.(accuracy.Invertible)
	if !ok || cfg.Personal.Alpha > 0 {
		return 0, false
	}
	var rest, rowG float64
	for j := range p {
		if j != i {
			rest += p[j].D * cfg.OmegaScale(j)
			rowG += cfg.Gamma * cfg.Rho[i][j]
		}
	}
	a := cfg.OmegaScale(i)
	if !(rest+a*cfg.DMin >= inv.ConcaveFrom()) {
		return 0, false
	}
	o := &cfg.Orgs[i]
	q := o.Quality
	if q == 0 {
		q = 1
	}
	b := rowG*q*o.DataBits - cfg.EnergyWeight*o.Comm.Kappa*f*f*o.Comm.CyclesPerBit*o.DataBits
	if b >= 0 {
		return hi, true
	}
	omega := inv.InverseDerivative(-b / (cfg.Weight(i) * a))
	return max(cfg.DMin, min(hi, (omega-rest)/a)), true
}

// solveNaive is Algorithm 2 on the reference scan: SolveCtx's sweep loop
// with no engine, from the paper's initial profile.
func solveNaive(cfg *game.Config, opts Options) *Result {
	opts, _ = opts.withDefaults()
	p := cfg.MinimalProfile()
	res := &Result{}
	for t := 0; t < opts.MaxRounds && !res.Converged; t++ {
		res.Rounds = t + 1
		changed := false
		for i := range cfg.Orgs {
			next, val, ok := bestResponseNaive(cfg, p, i, opts.DTol)
			if ok && val > cfg.Payoff(i, p)+opts.Tol {
				p[i] = next
				changed = true
			}
		}
		res.PotentialTrace = append(res.PotentialTrace, cfg.Potential(p))
		res.PayoffTrace = append(res.PayoffTrace, cfg.Payoffs(p))
		res.Converged = !changed
	}
	res.Profile = p
	return res
}

// resultHash is the SHA-256 of a result's profile, potential trace, payoff
// trace and round count (float64 bits, little-endian, in that order).
func resultHash(r *Result) string {
	h := sha256.New()
	put := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, s := range r.Profile {
		put(s.D)
		put(s.F)
	}
	for _, v := range r.PotentialTrace {
		put(v)
	}
	for _, row := range r.PayoffTrace {
		for _, v := range row {
			put(v)
		}
	}
	put(float64(r.Rounds))
	return hex.EncodeToString(h.Sum(nil))
}

// TestSolveGolden pins Solve's bytes to hashes recorded at the last commit
// that still had the `Incremental: off` twin, where on == off was asserted
// for every row at workers 1 and 4. Two rows, N = 8 and 16 at seed 2, were
// re-recorded when unpersonalized best responses moved to the first-order
// condition (the other ten kept their bits), with
// TestSolveIncrementalEquivalence holding the engine to the from-scratch
// reference. A change to payoff arithmetic, the scan order, the closed form
// or the golden-section driver shows up here.
func TestSolveGolden(t *testing.T) {
	for _, tc := range []struct {
		alpha float64
		n     int
		seed  int64
		sha   string
	}{
		{0, 8, 1, "10c7f549690dd591a379754dd99f99175828513582d87f948ebdd7294c8fcc22"},
		{0, 8, 2, "4f51c6b3c7471ca45a23274364a6223ec89c876674c73160980bfb9d6b220763"},
		{0, 8, 3, "5a86b7e87c2f804902703c24540864107b4575bcb037929282f26ed8d6a915b4"},
		{0, 16, 1, "f117ec30a7dba51940176734a7f6c8d38d2a21ac619ab6459a537232081a5a92"},
		{0, 16, 2, "a9f12aa3b0e573ff82b967c24fc59e9e107a66b9ff5ce7165e5e8718d04a1afb"},
		{0, 16, 3, "2dadd9113916a4d81a02bbce52f7e2ebfdd543a90d5a51fb54089d450e266e48"},
		{0, 32, 1, "a56455a90bfabd69f319addced0b44d15a26ae528e3a86992ab43acad8eae5c3"},
		{0, 32, 2, "c39093ca312579dce39439aa9538c5598c1263e3fdaaa4ed8005772bae8c5fdd"},
		{0, 32, 3, "370a30088c26735aba20932baf16f6e5919b2767fad7506240971b54b51646ff"},
		{0.3, 8, 1, "975569e1e3d632cc34ade3765ff139f72c1b274937df7a012acd4635da3bb9b7"},
		{0.3, 8, 2, "3d67eaca1c672755e031b3c5f1d0c7d00fbbae0b2dd47b70dfc0a58276239d2e"},
		{0.3, 8, 3, "4a48939a4ba694b0761a8a7ca5f87d3e2b2b4c3b0e17e5c011c144fa07936d47"},
	} {
		cfg, err := game.DefaultConfig(game.GenOptions{Seed: tc.seed, N: tc.n})
		if err != nil {
			t.Fatal(err)
		}
		if tc.alpha > 0 {
			cfg.Personal = game.Personalization{Alpha: tc.alpha, LocalBoost: 1.5}
		}
		for _, workers := range []int{1, 4} {
			res, err := Solve(cfg, nil, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got := resultHash(res); got != tc.sha {
				t.Errorf("α=%v N=%d seed=%d workers=%d: hash %s, want %s", tc.alpha, tc.n, tc.seed, workers, got, tc.sha)
			}
		}
	}
}
