package core

import (
	"context"
	"reflect"
	"testing"

	"tradefl/internal/fleet"
	"tradefl/internal/game"
)

// TestRunBatchMatchesMechanism: under either solver the fleet batch path
// and a per-instance Mechanism.Run report the same profile, payoffs,
// welfare and potential, and both report what the game's own evaluation of
// that profile gives — the values the solve computed once, not a second
// opinion.
func TestRunBatchMatchesMechanism(t *testing.T) {
	var cfgs []*game.Config
	for seed := int64(1); seed <= 3; seed++ {
		cfg, err := game.DefaultConfig(game.GenOptions{Seed: seed, N: 5, NoOrgName: true})
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	for _, tc := range []struct {
		plan   fleet.Plan
		solver Solver
	}{{fleet.PlanDBR, SolverDBR}, {fleet.PlanPruned, SolverCGBD}} {
		batch := RunBatch(context.Background(), cfgs, fleet.Options{Plan: tc.plan, Workers: 2})
		for i, b := range batch {
			if b.Fleet.Err != nil {
				t.Fatalf("plan %s instance %d: %v", tc.plan, i, b.Fleet.Err)
			}
			m, err := New(cfgs[i])
			if err != nil {
				t.Fatal(err)
			}
			ref, err := m.Run(context.Background(), Options{Solver: tc.solver})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(b.Fleet.Profile, ref.Profile) {
				t.Fatalf("plan %s instance %d: batch profile differs from Mechanism.Run", tc.plan, i)
			}
			if !reflect.DeepEqual(b.Payoffs, ref.Payoffs) || b.SocialWelfare != ref.SocialWelfare || b.Fleet.Potential != ref.Potential {
				t.Fatalf("plan %s instance %d: batch payoffs/welfare/potential differ from Mechanism.Run", tc.plan, i)
			}
			if !reflect.DeepEqual(ref.Payoffs, cfgs[i].Payoffs(ref.Profile)) ||
				ref.SocialWelfare != cfgs[i].SocialWelfare(ref.Profile) || ref.Potential != cfgs[i].Potential(ref.Profile) {
				t.Fatalf("plan %s instance %d: reported payoffs/welfare/potential are not the game's evaluation of the profile", tc.plan, i)
			}
		}
	}
}

// TestRunBatchPerInstanceError: a failing instance does not poison the
// batch and carries no mechanism quantities.
func TestRunBatchPerInstanceError(t *testing.T) {
	good, err := game.DefaultConfig(game.GenOptions{Seed: 1, N: 4, NoOrgName: true})
	if err != nil {
		t.Fatal(err)
	}
	batch := RunBatch(context.Background(), []*game.Config{good, {}}, fleet.Options{Workers: 1})
	if batch[0].Fleet.Err != nil || batch[0].Payoffs == nil {
		t.Fatalf("valid instance failed: %+v", batch[0].Fleet.Err)
	}
	if batch[1].Fleet.Err == nil || batch[1].Payoffs != nil {
		t.Fatal("invalid instance did not fail cleanly")
	}
}
