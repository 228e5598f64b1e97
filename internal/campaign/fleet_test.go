package campaign

import (
	"reflect"
	"testing"

	"tradefl/internal/dbr"
	"tradefl/internal/fleet"
	"tradefl/internal/game"
	"tradefl/internal/gbd"
	"tradefl/internal/randx"
)

func fleetBase(t *testing.T) *game.Config {
	t.Helper()
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: 5, N: 6, NoOrgName: true})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestCampaignFleetByteIdentical: the campaign's per-epoch results, solved
// through the shared fleet engine, must be byte-identical to solving every
// epoch with a direct solver call. The reference loop replays the exact
// drift sequence (same seed, same randx stream) and calls the underlying
// solver directly.
func TestCampaignFleetByteIdentical(t *testing.T) {
	base := fleetBase(t)
	camp := Config{Base: base, Epochs: 6, Seed: 9}
	got, err := Run(camp)
	if err != nil {
		t.Fatal(err)
	}
	camp = camp.withDefaults()
	src := randx.New(camp.Seed)
	current := cloneConfig(base)
	for epoch := 0; epoch < camp.Epochs; epoch++ {
		if epoch > 0 {
			drift(current, src, camp)
		}
		cold, err := dbr.Solve(current, nil, dbr.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := EpochResult{
			Epoch:     epoch,
			Gamma:     current.Gamma,
			Welfare:   current.SocialWelfare(cold.Profile),
			Damage:    current.TotalDamage(cold.Profile),
			Transfers: make([]float64, current.N()),
		}
		for i := range cold.Profile {
			want.TotalData += cold.Profile[i].D
			want.Transfers[i] = current.Redistribution(i, cold.Profile)
		}
		if !reflect.DeepEqual(got.Epochs[epoch], want) {
			t.Fatalf("epoch %d: fleet-solved campaign differs from cold per-epoch solves\ngot:  %+v\nwant: %+v",
				epoch, got.Epochs[epoch], want)
		}
	}
}

// TestCampaignFleetPlanPruned: a CGBD-routed campaign rebinds pooled CGBD
// workspaces across drifting epochs and must also match direct solves bit
// for bit.
func TestCampaignFleetPlanPruned(t *testing.T) {
	base := fleetBase(t)
	camp := Config{Base: base, Epochs: 4, Seed: 3, Plan: fleet.PlanPruned}
	got, err := Run(camp)
	if err != nil {
		t.Fatal(err)
	}
	camp = camp.withDefaults()
	src := randx.New(camp.Seed)
	current := cloneConfig(base)
	for epoch := 0; epoch < camp.Epochs; epoch++ {
		if epoch > 0 {
			drift(current, src, camp)
		}
		cold, err := gbd.Solve(current, gbd.Options{Master: gbd.MasterPruned})
		if err != nil {
			t.Fatal(err)
		}
		if got.Epochs[epoch].Welfare != current.SocialWelfare(cold.Profile) {
			t.Fatalf("epoch %d: CGBD campaign welfare %v differs from direct solve %v",
				epoch, got.Epochs[epoch].Welfare, current.SocialWelfare(cold.Profile))
		}
	}
}
