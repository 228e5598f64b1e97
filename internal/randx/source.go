package randx

// source is math/rand's additive lagged-Fibonacci generator (Mitchell &
// Reeds, x[n] = x[n−607] + x[n−273] over int64) with its seeding made lazy.
// For every seed it yields bit-for-bit the stream of rand.NewSource(seed);
// what differs is the cost of Seed.
//
// math/rand fills the 607-word register by walking the Lehmer generator
// x[k+1] = 48271·x[k] mod (2³¹−1) through 1,841 sequential steps: 20 to warm
// up, then three per entry. The walk is a pure power sequence,
// x[k] = 48271^k·x[0] mod (2³¹−1), so entry i needs only the three factors
// 48271^(21+3i), 48271^(22+3i), 48271^(23+3i), which do not depend on the
// seed and are tabulated once (seedMul). Seed therefore just records x[0],
// and an entry is computed — three independent modular products XOR
// rngCooked[i], exactly math/rand's expression — the first time the
// generator touches it. A stream costs what it reads: a Table II game of
// N ≤ 10 takes ~75 draws, 150 of the 607 entries.
type source struct {
	tap, feed int
	// cold is true while the register still has entries Seed left
	// unfilled. tap and feed only move down (mod 607) from 0 and 334, so
	// the first touches are feed's on entries 333…0 (draws 1–334) and
	// tap's on 606…334 (draws 1–273); once feed has filled entry 0 every
	// entry holds a value.
	cold bool
	x0   uint64 // the Lehmer generator's start, in [1, 2³¹−2]
	vec  [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1

	lehmerA      = 48271
	lehmerWarmup = 20
)

// seedMul[i] holds 48271^k mod (2³¹−1) for the three Lehmer steps
// k = 21+3i, 22+3i, 23+3i that math/rand folds into register entry i.
var seedMul = func() (t [rngLen][3]uint32) {
	x := uint64(1)
	for k := 0; k < lehmerWarmup; k++ {
		x = mulmod(x, lehmerA)
	}
	for i := range t {
		for j := range t[i] {
			x = mulmod(x, lehmerA)
			t[i][j] = uint32(x)
		}
	}
	return t
}()

// mulmod returns a·b mod (2³¹−1) for a, b < 2³¹: 2³¹ ≡ 1, so the high and
// low 31-bit halves of the product add.
func mulmod(a, b uint64) uint64 {
	p := a * b // < 2⁶²
	p = p&int32max + p>>31
	p = p&int32max + p>>31 // ≤ 2³¹−1 + 1
	if p >= int32max {
		p -= int32max
	}
	return p
}

// Seed restarts the stream at that of rand.NewSource(seed) in O(1): the
// register is filled as it is read.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.cold = true
}

// seeded is the value math/rand's Seed stores in entry i.
func (s *source) seeded(i int) int64 {
	m := &seedMul[i]
	u := int64(mulmod(s.x0, uint64(m[0])))<<40 ^
		int64(mulmod(s.x0, uint64(m[1])))<<20 ^
		int64(mulmod(s.x0, uint64(m[2])))
	return u ^ rngCooked[i]
}

// Int63 implements rand.Source.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 implements rand.Source64.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.cold {
		s.vec[s.feed] = s.seeded(s.feed)
		if s.tap >= rngLen-rngTap {
			s.vec[s.tap] = s.seeded(s.tap)
		}
		s.cold = s.feed != 0
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
