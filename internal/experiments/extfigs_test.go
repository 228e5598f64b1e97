package experiments

import (
	"testing"

	"tradefl/internal/dbr"
	"tradefl/internal/game"
	"tradefl/internal/randx"
)

func TestExtPersonalizationTradeoffs(t *testing.T) {
	fig := quick(t, "ext-personalization")
	damage := fig.SeriesByName("damage")
	data := fig.SeriesByName("data")
	welfare := fig.SeriesByName("welfare")
	if damage == nil || data == nil || welfare == nil {
		t.Fatal("missing series")
	}
	// Damage must fall monotonically with α: only the (1−α) share of the
	// model reaches competitors.
	for i := 1; i < len(damage.Y); i++ {
		if damage.Y[i] > damage.Y[i-1]+1e-9 {
			t.Errorf("damage rose at α=%v: %v", damage.X[i], damage.Y)
			break
		}
	}
	// The private return on own data weakly increases participation.
	if data.Y[len(data.Y)-1] < data.Y[0]-1e-9 {
		t.Errorf("data contribution fell under personalization: %v", data.Y)
	}
	// α = 0 must coincide with the base-model equilibrium welfare (fig6's
	// DBR value on the same seed).
	fig6, err := Run("fig6", Options{Seed: 7, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	dbr := fig6.SeriesByName("DBR")
	if dbr == nil {
		t.Fatal("fig6 missing DBR")
	}
	if diff := welfare.Y[0] - dbr.Y[0]; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("α=0 welfare %v != base DBR welfare %v", welfare.Y[0], dbr.Y[0])
	}
}

func campaignBase(t *testing.T) *game.Config {
	t.Helper()
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestCampaignFixedPolicy(t *testing.T) {
	base := campaignBase(t)
	res, err := runCampaign(campaign{base: base, epochs: 5, seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.welfare) != 5 {
		t.Fatalf("got %d epochs", len(res.welfare))
	}
	for k, w := range res.welfare {
		if w <= 0 {
			t.Errorf("epoch %d: degenerate welfare %v", k, w)
		}
	}
	if res.meanWelfare <= 0 {
		t.Error("mean welfare non-positive")
	}
}

func TestCampaignBaseConfigNotMutated(t *testing.T) {
	base := campaignBase(t)
	p0 := base.Orgs[0].Profitability
	s0 := base.Orgs[0].Samples
	rho01 := base.Rho[0][1]
	if _, err := runCampaign(campaign{base: base, epochs: 4, seed: 5}); err != nil {
		t.Fatal(err)
	}
	if base.Orgs[0].Profitability != p0 || base.Orgs[0].Samples != s0 || base.Rho[0][1] != rho01 {
		t.Error("campaign mutated the caller's base config")
	}
}

func TestCampaignDriftActuallyMoves(t *testing.T) {
	res, err := runCampaign(campaign{base: campaignBase(t), epochs: 6, seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.welfare[0] == res.welfare[len(res.welfare)-1] {
		t.Error("drift produced identical epochs")
	}
}

func TestCampaignAdaptivePolicyTracksGammaStar(t *testing.T) {
	// Start the fixed policy at a deliberately bad γ.
	bad := cloneConfig(campaignBase(t))
	bad.Gamma = 1e-9
	fixed, err := runCampaign(campaign{base: bad, epochs: 3, seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := runCampaign(campaign{base: bad, epochs: 3, seed: 11, adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.meanWelfare <= fixed.meanWelfare {
		t.Errorf("adaptive γ welfare %v not above badly-fixed γ welfare %v",
			adaptive.meanWelfare, fixed.meanWelfare)
	}
}

func TestCampaignValidation(t *testing.T) {
	if _, err := runCampaign(campaign{}); err == nil {
		t.Error("nil base accepted")
	}
	base := campaignBase(t)
	base.Accuracy = nil
	if _, err := runCampaign(campaign{base: base, epochs: 1}); err == nil {
		t.Error("invalid base accepted")
	}
}

func TestDeterministicCampaign(t *testing.T) {
	base := campaignBase(t)
	a, err := runCampaign(campaign{base: base, epochs: 4, seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runCampaign(campaign{base: base, epochs: 4, seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for k := range a.welfare {
		if a.welfare[k] != b.welfare[k] {
			t.Fatal("campaign not deterministic")
		}
	}
}

func TestCampaignDriftRespectsTableIIBounds(t *testing.T) {
	cfg := cloneConfig(campaignBase(t))
	src := randx.New(99)
	for e := 0; e < 200; e++ {
		drift(cfg, src)
		for i, o := range cfg.Orgs {
			if o.Profitability < 500 || o.Profitability > 2500 {
				t.Fatalf("epoch %d org %d: p=%v outside Table II range", e, i, o.Profitability)
			}
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("epoch %d: drifted config invalid: %v", e, err)
		}
	}
}

// TestCampaignFleetByteIdentical: the campaign's per-epoch results, solved
// through the shared fleet engine, must be byte-identical to solving every
// epoch with a direct solver call. The reference loop replays the exact
// drift sequence (same seed, same randx stream) and calls the underlying
// solver directly.
func TestCampaignFleetByteIdentical(t *testing.T) {
	base, err := game.DefaultConfig(game.GenOptions{Seed: 5, N: 6, NoOrgName: true})
	if err != nil {
		t.Fatal(err)
	}
	camp := campaign{base: base, epochs: 6, seed: 9}
	got, err := runCampaign(camp)
	if err != nil {
		t.Fatal(err)
	}
	src := randx.New(camp.seed)
	current := cloneConfig(base)
	for epoch := 0; epoch < camp.epochs; epoch++ {
		if epoch > 0 {
			drift(current, src)
		}
		cold, err := dbr.Solve(current, nil, dbr.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := current.SocialWelfare(cold.Profile)
		if got.welfare[epoch] != want {
			t.Fatalf("epoch %d: fleet-solved campaign differs from cold per-epoch solves\ngot:  %+v\nwant: %+v",
				epoch, got.welfare[epoch], want)
		}
	}
}
