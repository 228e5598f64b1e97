package game

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"tradefl/internal/randx"
)

// rawDefaultRho replays DefaultConfig's draw order (three draws per
// organization, then the competition matrix) to recover the matrix as it
// was before NormalizeRho ran. TestDefaultConfigRhoBits validates the replay
// against DefaultConfig itself, so a change of draw order fails loudly
// instead of silently pinning the wrong input.
func rawDefaultRho(n int, seed int64) [][]float64 {
	src := randx.New(seed)
	for i := 0; i < n; i++ {
		src.Uniform(15e9, 25e9)
		src.UniformInt(1000, 2000)
		src.Uniform(500, 2500)
	}
	return src.CompetitionMatrix(n, DefaultMu)
}

// rhoHash folds the matrix row-major and then the factor, FNV-64a over the
// little-endian IEEE bits.
func rhoHash(rho [][]float64, factor float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, row := range rho {
		for _, v := range row {
			put(v)
		}
	}
	put(factor)
	return h.Sum64()
}

// TestDefaultConfigRhoBits pins the generator's output bits: the normalized
// competition matrix and the min factor NormalizeRho returns, for the sizes
// the gateway workloads generate. The hashes were captured before
// NormalizeRho's loop was restructured; any change here means generated
// instances — and therefore every solver output downstream — moved.
func TestDefaultConfigRhoBits(t *testing.T) {
	want := []struct {
		n    int
		seed int64
		hash uint64
	}{
		{6, 1, 0x40f0d7b1735713f3},
		{6, 2, 0xe66caefdb8b3a5f7},
		{6, 3, 0x132d6977f958c895},
		{6, 4, 0xa97c600131f81078},
		{6, 5, 0x91129a218e44aca8},
		{10, 1, 0xd9978d86cf01bf8b},
		{10, 2, 0xb1fad718f1b0cd23},
		{10, 3, 0x1e849a5aeafb924d},
		{10, 4, 0xf0d1447d38f15ed4},
		{10, 5, 0xabda83483065f788},
		{24, 1, 0x161bf9460303a502},
		{24, 2, 0x25059a680a4f8cc5},
		{24, 3, 0x1057a8a71d22df77},
		{24, 4, 0xa63b7638dbd104ea},
		{24, 5, 0xf356af6b155f1207},
		{40, 1, 0x7e71706031a54cf9},
		{40, 2, 0x0292400fce97d2b9},
		{40, 3, 0x933cd81790498826},
		{40, 4, 0x821249495461bdab},
		{40, 5, 0xa511ed00b1900b2e},
	}
	for _, w := range want {
		cfg, err := DefaultConfig(GenOptions{N: w.n, Seed: w.seed})
		if err != nil {
			t.Fatalf("DefaultConfig(N=%d, seed=%d): %v", w.n, w.seed, err)
		}
		raw := *cfg
		raw.Rho = rawDefaultRho(w.n, w.seed)
		factor := raw.NormalizeRho(DefaultZMargin)
		for i := range cfg.Rho {
			for j := range cfg.Rho[i] {
				if math.Float64bits(raw.Rho[i][j]) != math.Float64bits(cfg.Rho[i][j]) {
					t.Fatalf("N=%d seed=%d: replayed rho[%d][%d] differs from DefaultConfig's; rawDefaultRho no longer mirrors the generator", w.n, w.seed, i, j)
				}
			}
		}
		if got := rhoHash(cfg.Rho, factor); got != w.hash {
			t.Errorf("N=%d seed=%d: rho hash %#016x, want %#016x (factor %v)", w.n, w.seed, got, w.hash, factor)
		}
	}
}
