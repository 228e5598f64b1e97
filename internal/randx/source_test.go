package randx

import (
	"math/rand"
	"slices"
	"testing"
)

// mathRand is the reference: math/rand's own source under the same
// rand.Rand distributions.
func mathRand(seed int64) *Source { return &Source{rng: rand.New(rand.NewSource(seed))} }

// drawMixed takes the k-th draw of a fixed rotation over every method the
// repo reaches the generator through, as comparable bits.
func drawMixed(s *Source, k int) any {
	switch k % 6 {
	case 0:
		return s.rng.Int63()
	case 1:
		return s.rng.Uint64()
	case 2:
		return s.Float64()
	case 3:
		return s.Normal(0, 1) // ziggurat: a data-dependent number of draws
	case 4:
		return s.Intn(1 + k)
	default:
		return s.Perm(k % 9)
	}
}

func sameDraw(a, b any) bool {
	if p, ok := a.([]int); ok {
		return slices.Equal(p, b.([]int))
	}
	return a == b
}

// TestSourceMatchesMathRand: for seeds on every branch of Seed's reduction
// (zero, negative, ≥ 2³¹−1, a multiple of it, the zero replacement itself)
// the stream is math/rand's over enough mixed draws to carry both taps
// round the 607-entry register several times, and again after a re-Seed
// in the middle of the cold phase and in the warm one.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -5, 1<<31 - 1, 1 << 31, 1 << 40, -1 << 62, 89482311, 2 * (1<<31 - 1), -(1<<31 - 1)}
	for si, seed := range seeds {
		got, want := New(seed), mathRand(seed)
		for k := 0; k < 3600; k++ {
			if a, b := drawMixed(got, k), drawMixed(want, k); !sameDraw(a, b) {
				t.Fatalf("seed %d, draw %d: got %v, math/rand %v", seed, k, a, b)
			}
			if k == 100 || k == 2500 {
				next := seeds[(si+1+k%3)%len(seeds)]
				got.Seed(next)
				want.Seed(next)
			}
		}
	}
}

// TestSourceRegisterMatchesSeedWalk compares all 607 entries with
// math/rand's sequential Lehmer walk written out here, so a wrong table row
// is named rather than surfacing as a draw mismatch 300 draws in.
func TestSourceRegisterMatchesSeedWalk(t *testing.T) {
	seedrand := func(x int32) int32 { // Schrage's method, as math/rand has it
		hi, lo := x/44488, x%44488
		if x = 48271*lo - 3399*hi; x < 0 {
			x += int32max
		}
		return x
	}
	for _, seed := range []int64{1, 89482311, int32max - 1, 12345} {
		var s source
		s.Seed(seed)
		x := int32(seed)
		for i := -20; i < rngLen; i++ {
			x = seedrand(x)
			if i < 0 {
				continue
			}
			u := int64(x) << 40
			x = seedrand(x)
			u ^= int64(x) << 20
			x = seedrand(x)
			u ^= int64(x)
			if got := s.seeded(i); got != u^rngCooked[i] {
				t.Fatalf("seed %d entry %d: %#x, want %#x", seed, i, got, u^rngCooked[i])
			}
		}
	}
}

// FuzzSourceMatchesMathRand: any seed, any number of draws, a re-Seed
// anywhere in between.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(1), uint16(80), uint16(0))
	f.Add(int64(0), uint16(700), uint16(333))
	f.Add(int64(-1<<63), uint16(1300), uint16(274))
	f.Add(int64(1<<31-1), uint16(335), uint16(334))
	f.Fuzz(func(t *testing.T, seed int64, draws, reseedAt uint16) {
		got, want := New(seed), mathRand(seed)
		for k := 0; k < int(draws%4096); k++ {
			if k == int(reseedAt) {
				got.Seed(seed ^ int64(reseedAt))
				want.Seed(seed ^ int64(reseedAt))
			}
			if a, b := drawMixed(got, k), drawMixed(want, k); !sameDraw(a, b) {
				t.Fatalf("seed %d, draw %d (re-seeded at %d): got %v, math/rand %v", seed, k, reseedAt, a, b)
			}
		}
	})
}

var sinkFloat float64

// BenchmarkSeedDraw80 is the generator's share of one small generated game:
// re-seed, then 80 draws (an N=10 Table II instance takes ~75). The
// math/rand row is the reference the jump-ahead seeding is measured against.
func BenchmarkSeedDraw80(b *testing.B) {
	for _, bc := range []struct {
		name string
		src  *Source
	}{{"randx", New(1)}, {"mathrand", mathRand(1)}} {
		b.Run(bc.name, func(b *testing.B) {
			var sum float64
			for i := 0; i < b.N; i++ {
				bc.src.Seed(int64(i))
				for k := 0; k < 80; k++ {
					sum += bc.src.Float64()
				}
			}
			sinkFloat = sum
		})
	}
}
