package gbd

import (
	"math"
	"testing"

	"tradefl/internal/game"
)

// gbdGames yields CGBD instances across sizes, grid densities and
// competition intensities (CGBD rejects the personalization extension, so
// only the base model).
func gbdGames(t *testing.T) []*game.Config {
	t.Helper()
	var cfgs []*game.Config
	for _, gen := range []game.GenOptions{
		{Seed: 7},
		{Seed: 3, N: 4, CPUSteps: 5},
		{Seed: 11, N: 6, Mu: 0.9},
	} {
		cfg, err := game.DefaultConfig(gen)
		if err != nil {
			t.Fatalf("DefaultConfig(%+v): %v", gen, err)
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// assertEquivalent checks two results agree on everything the exactness
// contract covers. The incumbent-seeded master may suppress the final
// iteration's maximum when no grid point beats the incumbent, so the LAST
// UpperBounds entry is allowed to differ (both runs have already converged
// on the same incumbent at that point); every other trace entry and the
// solution itself must be bitwise identical.
func assertEquivalent(t *testing.T, on, off *Result, label string) {
	t.Helper()
	if on.Iterations != off.Iterations || on.Converged != off.Converged {
		t.Fatalf("%s: control flow diverged: on=(%d,%v) off=(%d,%v)",
			label, on.Iterations, on.Converged, off.Iterations, off.Converged)
	}
	for i := range on.Profile {
		if on.Profile[i] != off.Profile[i] {
			t.Fatalf("%s: profile[%d] diverged: on=%+v off=%+v", label, i, on.Profile[i], off.Profile[i])
		}
	}
	if math.Float64bits(on.Potential) != math.Float64bits(off.Potential) {
		t.Fatalf("%s: potential diverged: %x vs %x", label,
			math.Float64bits(on.Potential), math.Float64bits(off.Potential))
	}
	if len(on.LowerBounds) != len(off.LowerBounds) || len(on.UpperBounds) != len(off.UpperBounds) {
		t.Fatalf("%s: trace lengths diverged", label)
	}
	for k := range on.LowerBounds {
		if math.Float64bits(on.LowerBounds[k]) != math.Float64bits(off.LowerBounds[k]) {
			t.Fatalf("%s: LowerBounds[%d] diverged: %x vs %x", label, k,
				math.Float64bits(on.LowerBounds[k]), math.Float64bits(off.LowerBounds[k]))
		}
	}
	for k := range on.UpperBounds {
		if k == len(on.UpperBounds)-1 {
			continue
		}
		if math.Float64bits(on.UpperBounds[k]) != math.Float64bits(off.UpperBounds[k]) {
			t.Fatalf("%s: UpperBounds[%d] diverged: %x vs %x", label, k,
				math.Float64bits(on.UpperBounds[k]), math.Float64bits(off.UpperBounds[k]))
		}
	}
	for k := range on.PotentialTrace {
		if math.Float64bits(on.PotentialTrace[k]) != math.Float64bits(off.PotentialTrace[k]) {
			t.Fatalf("%s: PotentialTrace[%d] diverged", label, k)
		}
	}
}

// TestPrimalMemoHits verifies the f-vector memo actually fires: solving an
// instance whose master revisits f-vectors must record cache hits, and a
// repeated solve must never change the answer.
func TestPrimalMemoHits(t *testing.T) {
	cfg := defaultGame(t, 7)
	before := mPrimalHits.Value() + mPrimalMisses.Value()
	first, err := Solve(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	after := mPrimalHits.Value() + mPrimalMisses.Value()
	if after == before {
		t.Fatal("solve recorded no primal cache traffic")
	}
	second, err := Solve(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, first, second, "repeat")
}

// TestCutDomination exercises the domination predicate directly: a cut that
// sits below another by at least the margin at every grid point is
// dominated, identical cuts are not (margin rule), and crossing cuts are
// incomparable in both directions.
func TestCutDomination(t *testing.T) {
	terms := [][]float64{{0, 1}, {2, 3}}
	if !cutDominates(terms, 1, terms, 2) {
		t.Fatal("a cut should dominate a shifted-up copy of itself")
	}
	if cutDominates(terms, 1, terms, 1) {
		t.Fatal("a cut must not dominate an identical copy (margin rule)")
	}
	if cutDominates(terms, 1-5e-7, terms, 1) {
		t.Fatal("a gap inside the 1e-6 margin must not count as domination")
	}
	crossA := [][]float64{{0, 10}}
	crossB := [][]float64{{10, 0}}
	if cutDominates(crossA, 0, crossB, 0) || cutDominates(crossB, 0, crossA, 0) {
		t.Fatal("crossing cuts must be incomparable")
	}
}
