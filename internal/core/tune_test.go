package core

import (
	"testing"

	"tradefl/internal/game"
)

func TestTuneGammaFindsInteriorPeak(t *testing.T) {
	m := mechanism(t, 7)
	res, err := m.TuneGamma()
	if err != nil {
		t.Fatal(err)
	}
	if res.Gamma <= 1e-10 || res.Gamma >= 2e-7 {
		t.Errorf("γ* = %v at the search boundary", res.Gamma)
	}
	// γ* must beat both endpoints of the sweep (non-monotonicity, Fig. 7).
	first, last := res.Probes[0], res.Probes[len(res.Probes)-1]
	if res.Welfare <= first.Welfare || res.Welfare <= last.Welfare {
		t.Errorf("peak welfare %v not above endpoints (%v, %v)",
			res.Welfare, first.Welfare, last.Welfare)
	}
	// γ* should be near the calibrated default (same order of magnitude).
	if res.Gamma < game.DefaultGamma/10 || res.Gamma > game.DefaultGamma*10 {
		t.Errorf("γ* = %v far from calibrated default %v", res.Gamma, game.DefaultGamma)
	}
	// The golden-section refinement ran past the coarse grid.
	if len(res.Probes) <= tuneCoarse {
		t.Errorf("%d probes: no refinement beyond the %d coarse ones", len(res.Probes), tuneCoarse)
	}
	// Probes sorted by γ.
	for i := 1; i < len(res.Probes); i++ {
		if res.Probes[i].Gamma < res.Probes[i-1].Gamma {
			t.Fatal("probes not sorted")
		}
	}
	// The mechanism's config must be unchanged.
	if m.Config().Gamma != game.DefaultGamma {
		t.Error("TuneGamma mutated the config")
	}
}
