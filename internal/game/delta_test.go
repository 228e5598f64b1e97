package game

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"tradefl/internal/randx"
)

// deltaTestConfigs yields game instances across the dimensions that change
// the payoff expression tree: size, competition intensity and the
// personalization extension (α > 0 switches the revenue and damage forms).
func deltaTestConfigs(t *testing.T) []*Config {
	t.Helper()
	var cfgs []*Config
	for _, gen := range []GenOptions{
		{Seed: 1},
		{Seed: 7, N: 4},
		{Seed: 11, N: 16, Mu: 0.9},
		{Seed: 3, N: 8, CPUSteps: 5},
	} {
		cfg, err := DefaultConfig(gen)
		if err != nil {
			t.Fatalf("DefaultConfig(%+v): %v", gen, err)
		}
		cfgs = append(cfgs, cfg)

		pers, err := DefaultConfig(gen)
		if err != nil {
			t.Fatalf("DefaultConfig(%+v): %v", gen, err)
		}
		pers.Personal = Personalization{Alpha: 0.3, LocalBoost: 1.5}
		cfgs = append(cfgs, pers)
	}
	return cfgs
}

// randomStrategy draws a feasible deviation for organization i.
func randomStrategy(cfg *Config, i int, src *randx.Source) (Strategy, bool) {
	levels := cfg.Orgs[i].CPULevels
	f := levels[src.Intn(len(levels))]
	lo, hi, ok := cfg.FeasibleD(i, f)
	if !ok {
		return Strategy{}, false
	}
	return Strategy{D: src.Uniform(lo, hi), F: f}, true
}

// naiveWith is the oracle: Config.Payoff on cur with cur[i] replaced by s.
func naiveWith(cfg *Config, cur Profile, i int, s Strategy) float64 {
	work := cur.Clone()
	work[i] = s
	return cfg.Payoff(i, work)
}

// sameBits fails the test unless got and want are the same IEEE bits.
func sameBits(t *testing.T, cfg *Config, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s = %x, naive %x (n=%d α=%v)",
			what, math.Float64bits(got), math.Float64bits(want), cfg.N(), cfg.Personal.Alpha)
	}
}

// allPayoffsMatch checks every organization's bound payoff, and the bound
// potential, against cur.
func allPayoffsMatch(t *testing.T, cfg *Config, ev *DeltaEvaluator, cur Profile, when string) {
	t.Helper()
	for j := 0; j < cfg.N(); j++ {
		sameBits(t, cfg, fmt.Sprintf("%s: Payoff(%d)", when, j), ev.Payoff(j), cfg.Payoff(j, cur))
	}
	sameBits(t, cfg, when+": Potential()", ev.Potential(), cfg.Potential(cur))
}

// pairMatches checks the paired probe against the oracle at both seats: a
// beside b, b beside a, and each beside itself.
func pairMatches(t *testing.T, cfg *Config, ev *DeltaEvaluator, cur Profile, i int, a, b Strategy, when string) {
	t.Helper()
	wantA, wantB := naiveWith(cfg, cur, i, a), naiveWith(cfg, cur, i, b)
	for _, tc := range []struct {
		x, y         Strategy
		wantX, wantY float64
	}{{a, b, wantA, wantB}, {b, a, wantB, wantA}, {a, a, wantA, wantA}, {b, b, wantB, wantB}} {
		x, y := ev.PayoffWithPair(i, tc.x, tc.y)
		sameBits(t, cfg, fmt.Sprintf("%s: first of PayoffWithPair(%d, %+v, %+v)", when, i, tc.x, tc.y), x, tc.wantX)
		sameBits(t, cfg, fmt.Sprintf("%s: second of PayoffWithPair(%d, %+v, %+v)", when, i, tc.x, tc.y), y, tc.wantY)
	}
}

// TestDeltaEvaluatorMatchesNaive is the core exactness contract: every
// PayoffWith result is bit-for-bit equal to Config.Payoff on the substituted
// profile, across configs (personalization off and on), profiles,
// single-coordinate mutations and every way the focus can move: an explicit
// Focus(i) followed by queries about i and about k ≠ i, the edge
// organizations 0 and N−1, and Update(i) / Update(k) / Bind after a focus.
func TestDeltaEvaluatorMatchesNaive(t *testing.T) {
	for _, cfg := range deltaTestConfigs(t) {
		src := randx.New(42)
		ev := NewDeltaEvaluator(cfg)
		n := cfg.N()
		for trial := 0; trial < 20; trial++ {
			p := randomProfile(cfg, src)
			ev.Bind(p)
			for i := 0; i < n; i++ {
				sameBits(t, cfg, fmt.Sprintf("Payoff(%d)", i), ev.Payoff(i), cfg.Payoff(i, p))
				for dev := 0; dev < 5; dev++ {
					s, ok := randomStrategy(cfg, i, src)
					if !ok {
						continue
					}
					sameBits(t, cfg, fmt.Sprintf("PayoffWith(%d, %+v)", i, s), ev.PayoffWith(i, s), naiveWith(cfg, p, i, s))
				}
			}

			// Focus moves. i cycles through the edges and a random interior
			// organization; k is any other organization.
			cur := p.Clone()
			for _, i := range []int{0, n - 1, src.Intn(n)} {
				k := (i + 1 + src.Intn(n-1)) % n
				si, okI := randomStrategy(cfg, i, src)
				sk, okK := randomStrategy(cfg, k, src)
				if !okI || !okK {
					continue
				}
				ev.Focus(i)
				sameBits(t, cfg, fmt.Sprintf("focus %d: PayoffWith(%d)", i, i), ev.PayoffWith(i, si), naiveWith(cfg, cur, i, si))
				sameBits(t, cfg, fmt.Sprintf("focus %d: PayoffWith(%d)", i, k), ev.PayoffWith(k, sk), naiveWith(cfg, cur, k, sk))
				sameBits(t, cfg, fmt.Sprintf("refocus %d: PayoffWith(%d)", i, i), ev.PayoffWith(i, si), naiveWith(cfg, cur, i, si))

				ev.Focus(i)
				ev.Update(k, sk)
				cur[k] = sk
				sameBits(t, cfg, fmt.Sprintf("focus %d, Update(%d): PayoffWith(%d)", i, k, i), ev.PayoffWith(i, si), naiveWith(cfg, cur, i, si))
				allPayoffsMatch(t, cfg, ev, cur, fmt.Sprintf("focus %d, Update(%d)", i, k))

				ev.Focus(i)
				ev.Update(i, si)
				cur[i] = si
				allPayoffsMatch(t, cfg, ev, cur, fmt.Sprintf("focus %d, Update(%d)", i, i))

				ev.Focus(i)
				ev.Bind(p)
				copy(cur, p)
				sameBits(t, cfg, fmt.Sprintf("focus %d, Bind: PayoffWith(%d)", i, i), ev.PayoffWith(i, si), naiveWith(cfg, cur, i, si))
				allPayoffsMatch(t, cfg, ev, cur, fmt.Sprintf("focus %d, Bind", i))
			}
		}
	}
}

// TestDeltaEvaluatorUpdate walks a random sequence of single-coordinate
// Update moves (the best-response access pattern) and checks the evaluator
// stays bit-identical to a naive evaluation of the mutated profile.
func TestDeltaEvaluatorUpdate(t *testing.T) {
	for _, cfg := range deltaTestConfigs(t) {
		src := randx.New(99)
		p := randomProfile(cfg, src)
		ev := NewDeltaEvaluator(cfg)
		ev.Bind(p)
		cur := p.Clone()
		for move := 0; move < 50; move++ {
			i := src.Intn(cfg.N())
			s, ok := randomStrategy(cfg, i, src)
			if !ok {
				continue
			}
			ev.Update(i, s)
			cur[i] = s
			for j := 0; j < cfg.N(); j++ {
				got, want := ev.Payoff(j), cfg.Payoff(j, cur)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("move %d: Payoff(%d) = %x, naive %x", move, j, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
		if got := ev.Bound(); len(got) != len(cur) {
			t.Fatalf("Bound() has %d entries, want %d", len(got), len(cur))
		} else {
			for i := range cur {
				if got[i] != cur[i] {
					t.Fatalf("Bound()[%d] = %+v, want %+v", i, got[i], cur[i])
				}
			}
		}
	}
}

// TestDeltaEvaluatorAgainstPayoff is the oracle the evaluator used to carry
// as a runtime self-check, kept where oracles belong: every query on the
// default instance is compared bit-for-bit against Config.Payoff.
func TestDeltaEvaluatorAgainstPayoff(t *testing.T) {
	cfg := testConfig(t, 5)
	src := randx.New(5)
	p := randomProfile(cfg, src)

	ev := NewDeltaEvaluator(cfg)
	ev.Bind(p)
	for i := 0; i < cfg.N(); i++ {
		for dev := 0; dev < 10; dev++ {
			s, ok := randomStrategy(cfg, i, src)
			if !ok {
				continue
			}
			sameBits(t, cfg, fmt.Sprintf("PayoffWith(%d, %+v)", i, s), ev.PayoffWith(i, s), naiveWith(cfg, p, i, s))
		}
	}
	if ev.Config() != cfg {
		t.Fatalf("Config() does not return the bound config")
	}
}

// TestDeltaEvaluatorFocusedConcurrentQueries pins the concurrency contract
// the parallel best-response scan relies on: after Focus(i), PayoffWith(i, ·)
// from two goroutines is read-only. Meaningful under -race; the results are
// also checked against the oracle.
func TestDeltaEvaluatorFocusedConcurrentQueries(t *testing.T) {
	for _, cfg := range deltaTestConfigs(t) {
		src := randx.New(23)
		p := randomProfile(cfg, src)
		ev := NewDeltaEvaluator(cfg)
		ev.Bind(p)
		for _, i := range []int{0, cfg.N() / 2, cfg.N() - 1} {
			const workers, each = 2, 16
			var devs [workers][each]Strategy
			for w := range devs {
				for k := range devs[w] {
					s, ok := randomStrategy(cfg, i, src)
					if !ok {
						s = p[i]
					}
					devs[w][k] = s
				}
			}
			ev.Focus(i)
			var got [workers][each]float64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for k, s := range devs[w] {
						got[w][k] = ev.PayoffWith(i, s)
					}
				}(w)
			}
			wg.Wait()
			for w := range devs {
				for k, s := range devs[w] {
					sameBits(t, cfg, fmt.Sprintf("worker %d: PayoffWith(%d, %+v)", w, i, s), got[w][k], naiveWith(cfg, p, i, s))
				}
			}
			// A committed move drops the focus before the next fan-out.
			ev.Update(i, devs[0][0])
			p[i] = devs[0][0]
		}
	}
}

// TestDeltaEvaluatorResetReuses verifies Reset rebinds without growing and
// that a reused evaluator is still exact for the new config.
func TestDeltaEvaluatorResetReuses(t *testing.T) {
	big := testConfig(t, 1)
	small, err := DefaultConfig(GenOptions{Seed: 2, N: 4})
	if err != nil {
		t.Fatalf("DefaultConfig: %v", err)
	}
	ev := NewDeltaEvaluator(big)
	ev.Reset(small)
	src := randx.New(17)
	p := randomProfile(small, src)
	ev.Bind(p)
	for i := 0; i < small.N(); i++ {
		got, want := ev.Payoff(i), small.Payoff(i, p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("after Reset: Payoff(%d) = %x, naive %x", i, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

var deltaSink float64

// TestDeltaEvaluatorZeroAlloc pins the steady-state query cost: a bound
// evaluator answers PayoffWith without allocating.
func TestDeltaEvaluatorZeroAlloc(t *testing.T) {
	cfg := testConfig(t, 1)
	src := randx.New(3)
	p := randomProfile(cfg, src)
	ev := NewDeltaEvaluator(cfg)
	ev.Bind(p)
	s, ok := randomStrategy(cfg, 2, src)
	if !ok {
		t.Fatal("no feasible deviation for org 2")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		deltaSink = ev.PayoffWith(2, s)
	})
	if allocs != 0 {
		t.Fatalf("PayoffWith allocates %v per query, want 0", allocs)
	}
}

// checkNashNaive is CheckNash's from-scratch reference: the same grid scan
// with every payoff evaluated by Config.Payoff.
func checkNashNaive(cfg *Config, p Profile, gridRes int, tol float64) NashReport {
	report := NashReport{IsNash: true, Deviator: -1, Tolerance: tol}
	for i := range cfg.Orgs {
		base := cfg.Payoff(i, p)
		for _, f := range cfg.Orgs[i].CPULevels {
			lo, hi, ok := cfg.FeasibleD(i, f)
			if !ok {
				continue
			}
			for k := 0; k < gridRes; k++ {
				d := lo + (hi-lo)*float64(k)/float64(gridRes-1)
				if regret := naiveWith(cfg, p, i, Strategy{D: d, F: f}) - base; regret > report.MaxRegret {
					report.MaxRegret = regret
					report.Deviator = i
				}
			}
		}
	}
	report.IsNash = report.MaxRegret <= tol
	return report
}

// TestCheckNashIncrementalEquivalence asserts the CheckNash report, whose
// deviations go through the DeltaEvaluator, is bit-identical to the
// from-scratch scan's.
func TestCheckNashIncrementalEquivalence(t *testing.T) {
	for _, cfg := range deltaTestConfigs(t) {
		src := randx.New(8)
		p := randomProfile(cfg, src)
		got := cfg.CheckNash(p, 25, 1e-2)
		want := checkNashNaive(cfg, p, 25, 1e-2)
		if got.IsNash != want.IsNash || got.Deviator != want.Deviator ||
			math.Float64bits(got.MaxRegret) != math.Float64bits(want.MaxRegret) {
			t.Fatalf("CheckNash diverged: incremental %+v vs naive %+v", got, want)
		}
	}
}

// FuzzDeltaEvaluator fuzzes the exactness contract: for a random instance,
// profile, focus sequence and single-coordinate mutations, the incremental
// payoff must match the naive evaluator bit-for-bit. The committed seed
// corpus in testdata/fuzz covers both model variants, the extreme grid
// points and a focus on the first and on the last organization.
func FuzzDeltaEvaluator(f *testing.F) {
	f.Add(int64(1), int64(0), 0.0)
	f.Add(int64(7), int64(3), 0.5)
	f.Add(int64(11), int64(42), 1.0)
	f.Add(int64(-5), int64(9), 0.25)
	f.Fuzz(func(t *testing.T, seed, pick int64, dFrac float64) {
		n := 2 + int(uint64(seed)%15) // 2..16 organizations
		gen := GenOptions{Seed: seed, N: n}
		cfg, err := DefaultConfig(gen)
		if err != nil {
			t.Skip()
		}
		if seed%2 == 0 {
			cfg.Personal = Personalization{Alpha: 0.25, LocalBoost: 2}
		}
		src := randx.New(seed ^ 0x5DEECE66D)
		p := randomProfile(cfg, src)
		i := int(uint64(pick) % uint64(cfg.N()))
		levels := cfg.Orgs[i].CPULevels
		fv := levels[int(uint64(pick)>>8)%len(levels)]
		lo, hi, ok := cfg.FeasibleD(i, fv)
		if !ok {
			t.Skip()
		}
		if math.IsNaN(dFrac) || math.IsInf(dFrac, 0) {
			dFrac = 0
		}
		dFrac = math.Abs(dFrac)
		if dFrac > 1 {
			dFrac = math.Mod(dFrac, 1)
		}
		s := Strategy{D: lo + (hi-lo)*dFrac, F: fv}

		ev := NewDeltaEvaluator(cfg)
		ev.Bind(p)
		ev.Focus(i)
		sameBits(t, cfg, fmt.Sprintf("seed=%d focused PayoffWith(%d, %+v)", seed, i, s), ev.PayoffWith(i, s), naiveWith(cfg, p, i, s))

		// A query about another organization moves the focus; coming back
		// must rebuild it.
		k := (i + 1 + int((uint64(pick)>>16)%uint64(n-1))) % n
		sk, ok := randomStrategy(cfg, k, src)
		if !ok {
			sk = p[k]
		}
		sameBits(t, cfg, fmt.Sprintf("seed=%d focus %d: PayoffWith(%d, %+v)", seed, i, k, sk), ev.PayoffWith(k, sk), naiveWith(cfg, p, k, sk))
		sameBits(t, cfg, fmt.Sprintf("seed=%d refocused PayoffWith(%d, %+v)", seed, i, s), ev.PayoffWith(i, s), naiveWith(cfg, p, i, s))

		// The paired probe: focused, then moving the focus itself, with the
		// certificate's own shape of pair (an end and its near neighbour).
		pairMatches(t, cfg, ev, p, i, s, p[i], fmt.Sprintf("seed=%d focused", seed))
		pairMatches(t, cfg, ev, p, k, sk, p[k], fmt.Sprintf("seed=%d focus %d", seed, i))
		pairMatches(t, cfg, ev, p, i, Strategy{D: hi, F: fv}, Strategy{D: hi - 0x1p-26, F: fv}, fmt.Sprintf("seed=%d refocused", seed))

		// Committing moves after a focus — someone else's, then the focused
		// organization's own — must leave every payoff equal to the naive
		// evaluation of the mutated profile, and so must a re-Bind.
		cur := p.Clone()
		ev.Focus(i)
		ev.Update(k, sk)
		cur[k] = sk
		sameBits(t, cfg, fmt.Sprintf("seed=%d Update(%d): PayoffWith(%d, %+v)", seed, k, i, s), ev.PayoffWith(i, s), naiveWith(cfg, cur, i, s))
		pairMatches(t, cfg, ev, cur, i, s, Strategy{D: lo, F: fv}, fmt.Sprintf("seed=%d Update(%d)", seed, k))
		ev.Update(i, s)
		cur[i] = s
		allPayoffsMatch(t, cfg, ev, cur, fmt.Sprintf("seed=%d after Update(%d), Update(%d)", seed, k, i))
		ev.Focus(i)
		ev.Bind(p)
		allPayoffsMatch(t, cfg, ev, p, fmt.Sprintf("seed=%d after Bind", seed))
	})
}
