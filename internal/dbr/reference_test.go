package dbr

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"tradefl/internal/game"
	"tradefl/internal/optimize"
)

// bestResponseNaive is the from-scratch reference of a best-response scan:
// the engine's candidate loop and golden-section driver with every payoff
// evaluated by Config.Payoff in O(N²). The engine must match it bit for
// bit.
func bestResponseNaive(cfg *game.Config, p game.Profile, i int, dTol float64) (game.Strategy, float64, bool) {
	work := p.Clone()
	var cands []candidate
	for _, f := range cfg.Orgs[i].CPULevels {
		lo, hi, feasible := cfg.FeasibleD(i, f)
		if !feasible {
			continue
		}
		d, val, _ := optimize.GoldenSection(func(d float64) float64 {
			work[i] = game.Strategy{D: d, F: f}
			return cfg.Payoff(i, work)
		}, lo, hi, dTol)
		cands = append(cands, candidate{s: game.Strategy{D: d, F: f}, val: val, feasible: true})
	}
	return reduceCandidates(cands)
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
// for every row at workers 1 and 4. A change to payoff arithmetic, the scan
// order or the golden-section driver shows up here.
func TestSolveGolden(t *testing.T) {
	for _, tc := range []struct {
		alpha float64
		n     int
		seed  int64
		sha   string
	}{
		{0, 8, 1, "10c7f549690dd591a379754dd99f99175828513582d87f948ebdd7294c8fcc22"},
		{0, 8, 2, "1532b308e5618bcd376426b680d9dfa44a8d98c815d5fe201335b677c7478855"},
		{0, 8, 3, "5a86b7e87c2f804902703c24540864107b4575bcb037929282f26ed8d6a915b4"},
		{0, 16, 1, "f117ec30a7dba51940176734a7f6c8d38d2a21ac619ab6459a537232081a5a92"},
		{0, 16, 2, "57cf190b03ce5143072e63519ebb4f0c0d6d4db5ecf1c6741f27e81327102544"},
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
