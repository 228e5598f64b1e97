package game

import (
	"math"
	"math/rand"
	"testing"

	"tradefl/internal/randx"
)

// normalizeRhoReference is NormalizeRho as it stood before the skip rule:
// a factor that drops marks every row whose minimum it undercuts stale
// (the fan-out), so those rows are summed again. It also reports the row
// sums evaluated and the passes run.
func normalizeRhoReference(c *Config, margin float64) (minFactor float64, rowEvals, passes int) {
	n := c.N()
	buf := make([]float64, 2*n)
	factors, prof := buf[:n], buf[n:]
	stale := make([]bool, n)
	for i := range factors {
		factors[i] = 1
		prof[i] = c.Orgs[i].Profitability
		stale[i] = true
	}
	for iter := 0; iter < 200; iter++ {
		passes++
		changed := false
		for i := 0; i < n; i++ {
			if !stale[i] {
				continue
			}
			stale[i] = false
			rowEvals++
			row := c.Rho[i][:n]
			fi := factors[i]
			var sum float64
			for j, r := range row {
				sum += r * min(fi, factors[j]) * prof[j]
			}
			limit := (1 - margin) * prof[i]
			if sum > limit+TolRelative*limit {
				fi *= limit / sum
				factors[i] = fi
				changed = true
				stale[i] = true
				for j, fj := range factors {
					if fi < fj {
						stale[j] = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	minFactor = 1.0
	for _, f := range factors {
		if f < minFactor {
			minFactor = f
		}
	}
	if minFactor >= 1-TolRelative {
		return 1, rowEvals, passes
	}
	for i := 0; i < n; i++ {
		row := c.Rho[i][:n]
		fi := factors[i]
		for j := range row {
			row[j] *= min(fi, factors[j])
		}
	}
	return minFactor, rowEvals, passes
}

// Shapes of normalizeCase's matrices and profitabilities.
const (
	shapeGenerated = iota // DefaultConfig's draw: ρ ~ N(μ, (μ/5)²), p ~ U[500, 2500]
	shapeSparse           // the same with about half the pairs zeroed
	shapeEqual            // constant ρ = μ and one profitability: every factor equal
	shapeDominant         // one profitability up to MaxMagnitude, the rest near 1
	shapePassCap          // one row that closes 1–5% of its gap per pass
	numShapes
)

// normalizeCase builds the part of a Config NormalizeRho reads — the
// profitabilities and a symmetric, zero-diagonal, non-negative ρ — as a
// pure function of its arguments, which are folded into the ranges the
// tests cover: N 1–64, μ 0–1, margin 0–0.5.
func normalizeCase(seed int64, n, shape int, mu, margin float64) (*Config, float64) {
	fold := func(v, top float64) float64 {
		if !(math.Abs(v) <= math.MaxFloat64) { // NaN, ±Inf
			return top
		}
		return math.Mod(math.Abs(v), top*(1+0x1p-52))
	}
	n = 1 + (n%64+64)%64
	shape = (shape%numShapes + numShapes) % numShapes
	mu, margin = fold(mu, 1), fold(margin, 0.5)
	src := randx.New(seed)
	cfg := &Config{Orgs: make([]Organization, n)}
	for i := range cfg.Orgs {
		cfg.Orgs[i].Profitability = src.Uniform(500, 2500)
	}
	cfg.Rho = src.CompetitionMatrix(n, mu)
	switch shape {
	case shapeSparse:
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if src.Intn(2) == 0 {
					cfg.Rho[i][j], cfg.Rho[j][i] = 0, 0
				}
			}
		}
	case shapeEqual:
		for i := range cfg.Orgs {
			cfg.Orgs[i].Profitability = 1000
			for j := range cfg.Rho[i] {
				if i != j {
					cfg.Rho[i][j] = mu
				}
			}
		}
	case shapeDominant:
		for i := range cfg.Orgs {
			cfg.Orgs[i].Profitability = src.Uniform(1, 2)
		}
		// Log-uniform over [1, MaxMagnitude].
		cfg.Orgs[src.Intn(n)].Profitability = math.Exp(src.Uniform(0, math.Log(MaxMagnitude)))
	case shapePassCap:
		// Organizations b, h, a, v = 0..3, everyone else isolated. h is huge
		// and caps c_b ≈ p_b/p_h in the first pass, before row v is reached.
		// Row v is then c_v·p_a + c_b·p_b against a limit of p_v = 1, and
		// its fixed part c_b·p_b is share of that limit: rescaling c_v by
		// limit/sum closes only 1−share of the gap per pass, so 200 passes
		// leave it far outside TolRelative.
		if n >= 4 {
			for i := range cfg.Orgs {
				cfg.Orgs[i].Profitability = 1
				for j := range cfg.Rho[i] {
					cfg.Rho[i][j] = 0
				}
			}
			const b, h, a, v = 0, 1, 2, 3
			share := src.Uniform(0.95, 0.995)
			cfg.Orgs[h].Profitability = 1e6
			cfg.Orgs[b].Profitability = math.Sqrt(share * 1e6)
			for _, e := range [][2]int{{b, h}, {b, v}, {a, v}} {
				cfg.Rho[e[0]][e[1]], cfg.Rho[e[1]][e[0]] = 1, 1
			}
			margin = 0
		}
	}
	return cfg, margin
}

// cloneRho returns a copy of the config NormalizeRho can mutate on its own.
func cloneRho(c *Config) *Config {
	out := *c
	out.Rho = make([][]float64, len(c.Rho))
	for i, row := range c.Rho {
		out.Rho[i] = append([]float64(nil), row...)
	}
	return &out
}

// checkNormalizeMatchesReference runs both loops on copies of one case and
// requires the same ρ bits, the same returned factor and no more row sums
// than the reference evaluated. It returns what the reference reported.
func checkNormalizeMatchesReference(t testing.TB, cfg *Config, margin float64) (factor float64, passes int) {
	t.Helper()
	for _, row := range cfg.Rho {
		for _, v := range row {
			if !(v >= 0) {
				t.Fatalf("case has a negative or NaN ρ entry %v: outside the skip rule's contract", v)
			}
		}
	}
	ref, got := cloneRho(cfg), cloneRho(cfg)
	wantFactor, wantEvals, passes := normalizeRhoReference(ref, margin)
	gotFactor, gotEvals := got.normalizeRho(margin)
	if math.Float64bits(gotFactor) != math.Float64bits(wantFactor) {
		t.Fatalf("N=%d margin=%v: factor %v, reference %v", cfg.N(), margin, gotFactor, wantFactor)
	}
	for i := range ref.Rho {
		for j := range ref.Rho[i] {
			if math.Float64bits(got.Rho[i][j]) != math.Float64bits(ref.Rho[i][j]) {
				t.Fatalf("N=%d margin=%v: rho[%d][%d] = %v, reference %v", cfg.N(), margin, i, j, got.Rho[i][j], ref.Rho[i][j])
			}
		}
	}
	if gotEvals > wantEvals {
		t.Fatalf("N=%d margin=%v: %d row sums, reference %d", cfg.N(), margin, gotEvals, wantEvals)
	}
	return wantFactor, passes
}

// TestNormalizeRhoMatchesReference: the skip rule changes the work and
// nothing else, over every shape, size, μ and margin the generator and the
// callers can produce, including a run into the 200-pass cap.
func TestNormalizeRhoMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	capped, passCapped := 0, 0
	perShape := [numShapes]int{}
	for k := 0; k < 6000; k++ {
		shape := k % numShapes
		mu, margin := r.Float64(), 0.5*r.Float64()
		switch r.Intn(8) { // the ends of both ranges
		case 0:
			mu = 0
		case 1:
			mu = 1
		case 2:
			margin = 0
		case 3:
			margin = 0.5
		}
		cfg, margin := normalizeCase(r.Int63(), r.Intn(64), shape, mu, margin)
		factor, passes := checkNormalizeMatchesReference(t, cfg, margin)
		perShape[shape]++
		if factor < 1 {
			capped++
		}
		if passes == 200 {
			passCapped++
		}
	}
	t.Logf("%d cases %v, %d capped, %d stopped by the pass cap", 6000, perShape, capped, passCapped)
	if capped < 2000 || passCapped == 0 {
		t.Fatalf("corpus too easy: %d capped, %d at the pass cap", capped, passCapped)
	}
}

// TestNormalizeRhoSkipsWork pins the point of the rule on the generator's
// own instances: about a third of the reference's row sums.
func TestNormalizeRhoSkipsWork(t *testing.T) {
	var got, want int
	for seed := int64(1); seed <= 50; seed++ {
		cfg, err := DefaultConfig(GenOptions{N: 32, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Rho = rawDefaultRho(32, seed)
		ref := cloneRho(cfg)
		_, w, _ := normalizeRhoReference(ref, DefaultZMargin)
		_, g := cfg.normalizeRho(DefaultZMargin)
		got, want = got+g, want+w
	}
	t.Logf("N=32: %d row sums, reference %d", got, want)
	if 2*got > want {
		t.Fatalf("N=32: %d row sums against the reference's %d, want under half", got, want)
	}
}

func FuzzNormalizeRhoMatchesReference(f *testing.F) {
	f.Add(int64(1), 31, shapeGenerated, 0.05, 0.05)
	f.Add(int64(2), 63, shapeSparse, 1.0, 0.5)
	f.Add(int64(3), 7, shapeEqual, 0.3, 0.0)
	f.Add(int64(4), 39, shapeDominant, 0.9, 0.25)
	f.Add(int64(5), 3, shapePassCap, 0.0, 0.0)
	f.Add(int64(6), 0, shapeGenerated, 1.0, 0.1)
	f.Fuzz(func(t *testing.T, seed int64, n, shape int, mu, margin float64) {
		cfg, margin := normalizeCase(seed, n, shape, mu, margin)
		checkNormalizeMatchesReference(t, cfg, margin)
	})
}
