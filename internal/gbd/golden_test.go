package gbd

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"tradefl/internal/game"
)

// resultHash is the SHA-256 of a result's profile, potential, LowerBounds
// and UpperBounds (float64 bits, little-endian, in that order).
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
	put(r.Potential)
	for _, v := range r.LowerBounds {
		put(v)
	}
	for _, v := range r.UpperBounds {
		put(v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenCase is one instance of the golden table: a generated game,
// optionally with uneven CPU grids (shapedConfig's widths) or with the
// deadline that makes the slow levels infeasible (feasibility cuts), and
// the hash of its solution.
type goldenCase struct {
	gen    game.GenOptions
	widths []int
	tight  bool
	sha    string
}

func (tc goldenCase) config(t *testing.T) *game.Config {
	t.Helper()
	cfg, err := game.DefaultConfig(tc.gen)
	if err != nil {
		t.Fatalf("DefaultConfig(%+v): %v", tc.gen, err)
	}
	for i := range cfg.Orgs {
		if tc.widths != nil {
			cfg.Orgs[i].CPULevels = game.DefaultCPULevels(tc.widths[i%len(tc.widths)])
		}
	}
	if tc.tight {
		cfg.Deadline = 0.5 + 0.6*25e9/4.2e9 // slow levels cannot fit D_min
	}
	return cfg
}

// goldens were recorded at the last commit that still had the
// `Incremental: off` twin — the solver that re-tabulated every cut,
// re-solved every primal and searched unseeded on every master call. There,
// for every row, both masters (traversal up to N = 10) and workers 1, 2 and
// 4, the off path and the engine returned these same bytes.
var goldens = []goldenCase{
	{gen: game.GenOptions{Seed: 1, N: 4}, sha: "a964ed029aa6bac40b488a581ecb7b3e4acf004430e464fc362243499fe12639"},
	{gen: game.GenOptions{Seed: 2, N: 4}, sha: "f52014ed74f3fd4ec583c8ba96a5fee6541b07a8bc6ee888e45a10b22f16ba24"},
	{gen: game.GenOptions{Seed: 3, N: 4}, sha: "dddfd7e269f60333e859aef0c1b05f67726f5a9c9f44bf55dc4e4a937e7fd252"},
	{gen: game.GenOptions{Seed: 1, N: 8}, sha: "c4766d0edbac778887b23349fa686d74ca652fb3003aac7e1cde11fe9303b2af"},
	{gen: game.GenOptions{Seed: 2, N: 8}, sha: "17e282b4a3ffc44d15e66bbe88661afc7ef6c43925f2256eadbd0a9b1c4d7dca"},
	{gen: game.GenOptions{Seed: 3, N: 8}, sha: "431b904dd8377a23104c7d0fefba2ae35404f057c72750f04ac6e4b4f66f9ff9"},
	{gen: game.GenOptions{Seed: 1, N: 12}, sha: "5e45fc864f23b6424252a9b19f01c5e0af8b869b7ab57912ab07bebe16f2b2ec"},
	{gen: game.GenOptions{Seed: 2, N: 12}, sha: "6aca9487265d1dac18dbdce3d5c58a87681eeaa126532a111b0d9a6df059ae74"},
	{gen: game.GenOptions{Seed: 3, N: 12}, sha: "2d0bfe21eb7f7e706d1be83fff3ca08b2de8c306eee66a4ead3a6152bf37e28a"},
	{gen: game.GenOptions{Seed: 7}, sha: "267abad33d29c0117232a9e3aa1e17cda87bdacb0abad42baac38cc538aa9eff"},
	{gen: game.GenOptions{Seed: 3, N: 4, CPUSteps: 5}, sha: "dddfd7e269f60333e859aef0c1b05f67726f5a9c9f44bf55dc4e4a937e7fd252"},
	{gen: game.GenOptions{Seed: 11, N: 6, Mu: 0.9}, sha: "9b94b0ae81c199fb5c70ff473a9e1538d7d7e1edbcb013f67ebdf373be4c10f8"},
	{gen: game.GenOptions{Seed: 4, N: 6, NoOrgName: true}, tight: true, sha: "6a081b256f479ef2af038b2cf138b282dee6d5ad37a7f2a25422d122cd3e74bf"},
	{gen: game.GenOptions{Seed: 3, N: 8, NoOrgName: true}, widths: []int{2, 5, 3}, sha: "ed3089fb892b42f416d719e7166025640bb23fa767dfcbcf63245ff981756c6c"},
}

// TestSolveIncrementalEquivalence pins the solver — cached cut tables,
// seeded masters — to the bytes of the recompute-everything solver it
// replaced (see goldens), for both master solvers.
func TestSolveIncrementalEquivalence(t *testing.T) {
	for _, tc := range goldens {
		cfg := tc.config(t)
		for _, master := range []MasterSolver{MasterPruned, MasterTraversal} {
			if master == MasterTraversal && cfg.N() > 10 {
				continue // 3^12 grid points per master call
			}
			res, err := Solve(cfg, Options{Master: master})
			if err != nil {
				t.Fatalf("%+v master=%d: %v", tc.gen, master, err)
			}
			if got := resultHash(res); got != tc.sha {
				t.Errorf("%+v master=%d: hash %s, want %s", tc.gen, master, got, tc.sha)
			}
		}
	}
}
