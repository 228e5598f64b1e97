// Package randx provides deterministic, seedable random sources and the
// domain-specific generators used across TradeFL experiments: uniform and
// normal scalar draws, and the symmetric competition-intensity matrices
// described in Sec. VI of the paper (ρ_ij ~ N(μ, (μ/5)²), clipped to [0,1]).
//
// Every generator takes an explicit seed so that simulations, tests and
// benchmark series are bit-for-bit reproducible.
package randx

import "math/rand"

// Source is a deterministic random source with the scalar distributions the
// experiments need: math/rand's distributions (rand.Rand) over this
// package's generator, whose stream for a seed is the one
// rand.NewSource(seed) gives (see source).
type Source struct {
	rng *rand.Rand
}

// New returns a Source seeded with the given seed. Equal seeds produce equal
// streams.
func New(seed int64) *Source {
	src := new(source)
	src.Seed(seed)
	return &Source{rng: rand.New(src)}
}

// Seed restarts the stream: after Seed(seed) the source draws exactly what
// New(seed) would, without allocating a new generator state (4.9 KB) and
// without filling it — seeding costs O(1), the draws that follow pay for the
// entries they read.
func (s *Source) Seed(seed int64) { s.rng.Seed(seed) }

// Float64 returns a uniform draw in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Uniform returns a uniform draw in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rng.Float64()
}

// UniformInt returns a uniform integer draw in [lo, hi] inclusive.
func (s *Source) UniformInt(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + s.rng.Intn(hi-lo+1)
}

// Normal returns a normal draw with the given mean and standard deviation.
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.rng.NormFloat64()
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// Intn returns a uniform integer in [0, n).
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Clip limits x to the interval [lo, hi].
func Clip(x, lo, hi float64) float64 {
	switch {
	case x < lo:
		return lo
	case x > hi:
		return hi
	default:
		return x
	}
}

// CompetitionMatrix draws an n×n symmetric competition-intensity matrix with
// zero diagonal. Off-diagonal entries are sampled from N(mu, (mu/5)²) and
// clipped to [0, 1], exactly the generator the paper uses for Figs. 10-11.
// Symmetry (ρ_ij = ρ_ji) is required for budget balance (Definition 5):
// with a symmetric matrix the pairwise transfers r_ij = −r_ji cancel.
func (s *Source) CompetitionMatrix(n int, mu float64) [][]float64 {
	sigma := mu / 5
	m := make([][]float64, n)
	slab := make([]float64, n*n)
	for i := range m {
		m[i] = slab[i*n : (i+1)*n : (i+1)*n] // capacity-clipped: an append cannot reach the next row
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := Clip(s.Normal(mu, sigma), 0, 1)
			m[i][j] = v
			m[j][i] = v
		}
	}
	return m
}
