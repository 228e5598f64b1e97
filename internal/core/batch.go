package core

import (
	"context"

	"tradefl/internal/fleet"
	"tradefl/internal/game"
)

// BatchResult is the mechanism-level view of one fleet-solved instance:
// the raw solver outcome plus the payoff vector and social welfare the
// mechanism reports per run (the fleet result's own, evaluated once by
// the solve). The per-instance Nash audit is deliberately
// not recomputed here: the auditor-armed tests check every solve through
// the solver audit hooks.
type BatchResult struct {
	// Fleet is the underlying fleet result (plan, profile, potential,
	// per-instance error).
	Fleet fleet.Result
	// Payoffs is C_i per organization (nil when the solve failed).
	Payoffs []float64
	// SocialWelfare is Σ C_i.
	SocialWelfare float64
}

// RunBatch solves every game instance through a fleet engine and derives
// the per-instance mechanism quantities. Results are in input order;
// per-instance failures are recorded in BatchResult.Fleet.Err without
// aborting the batch.
func RunBatch(ctx context.Context, cfgs []*game.Config, opts fleet.Options) []BatchResult {
	eng := fleet.New(opts)
	fres := eng.Solve(ctx, cfgs)
	out := make([]BatchResult, len(fres))
	for i, fr := range fres {
		out[i] = BatchResult{Fleet: fr, Payoffs: fr.Payoffs, SocialWelfare: fr.Welfare}
	}
	return out
}
