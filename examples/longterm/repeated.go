package main

// This file studies TradeFL's long-term participation incentives by
// embedding the one-shot coopetition game in an infinitely repeated game
// with discounting — the setting of Zhang et al. [29], which the paper
// contrasts itself against (Sec. II).
//
// Each stage plays the TradeFL mechanism. An organization can either
// cooperate — play its TradeFL equilibrium strategy — or defect to its
// short-run best response against the cooperative profile with the
// redistribution γ it owes withheld (the "repudiate and free-ride"
// deviation the smart contract exists to deter). Cooperation is enforced
// off-chain by grim-trigger punishment: after an observed defection, every
// organization reverts to the no-redistribution equilibrium (WPR) forever.
//
// The package computes, per organization, the critical discount factor
// δ*_i above which cooperation is self-enforcing:
//
//	δ*_i = g_i / (g_i + ℓ_i),
//
// where g_i is the one-shot defection gain and ℓ_i the per-stage loss of
// being punished (cooperative payoff minus punishment payoff). With the
// smart contract, the defection gain from repudiation is zero by
// construction — the bond is escrowed — which is the quantitative version
// of the paper's credibility argument.

import (
	"errors"
	"fmt"

	"tradefl/internal/baselines"
	"tradefl/internal/dbr"
	"tradefl/internal/game"
)

// analysis is the long-term cooperation report for one game instance.
type analysis struct {
	// Cooperative holds C_i at the TradeFL equilibrium (the cooperative
	// path payoff per stage).
	Cooperative []float64
	// Punishment holds C_i at the no-redistribution (WPR) equilibrium, the
	// grim-trigger continuation.
	Punishment []float64
	// DefectionGain holds g_i: the best one-shot gain from deviating off
	// the cooperative profile while withholding owed redistribution.
	DefectionGain []float64
	// CriticalDelta holds δ*_i = g_i/(g_i + ℓ_i); cooperation is
	// self-enforcing for organization i at any discount factor δ ≥ δ*_i.
	// Zero when the organization has no profitable deviation at all.
	CriticalDelta []float64
	// MaxCriticalDelta is the δ* of the whole consortium (cooperation is
	// an equilibrium of the repeated game iff δ ≥ max_i δ*_i).
	MaxCriticalDelta float64
	// ContractEnforced reports the same quantities when settlement runs
	// through the smart contract: the redistribution cannot be withheld,
	// so the defection gain collapses to the pure strategy deviation —
	// which is zero at a Nash equilibrium.
	ContractEnforced struct {
		DefectionGain    []float64
		MaxCriticalDelta float64
	}
}

// deviationGrid is the number of d values scanned per CPU level when
// searching the best deviation.
const deviationGrid = 60

// analyze computes the repeated-game cooperation thresholds for cfg.
func analyze(cfg *game.Config) (*analysis, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("repeated: %w", err)
	}
	if cfg.Gamma == 0 {
		return nil, errors.New("repeated: γ = 0 leaves nothing to enforce")
	}

	coop, err := dbr.Solve(cfg, nil, dbr.Options{})
	if err != nil {
		return nil, fmt.Errorf("repeated: cooperative equilibrium: %w", err)
	}
	wpr, err := baselines.WPR(cfg)
	if err != nil {
		return nil, fmt.Errorf("repeated: punishment equilibrium: %w", err)
	}

	n := cfg.N()
	a := &analysis{
		Cooperative:   cfg.Payoffs(coop.Profile),
		DefectionGain: make([]float64, n),
		CriticalDelta: make([]float64, n),
	}
	// Punishment payoffs are evaluated in the γ = 0 game: the consortium
	// has dissolved the trading mechanism.
	punishCfg := *cfg
	punishCfg.Gamma = 0
	a.Punishment = punishCfg.Payoffs(wpr.Profile)

	a.ContractEnforced.DefectionGain = make([]float64, n)
	for i := 0; i < n; i++ {
		// Without the contract the defector also withholds what it owes:
		// its deviation payoff gains max(0, −R_i(π')) on top.
		gain, gainEnforced := bestDeviation(cfg, coop.Profile, i)
		a.DefectionGain[i] = gain
		a.ContractEnforced.DefectionGain[i] = gainEnforced

		loss := a.Cooperative[i] - a.Punishment[i]
		a.CriticalDelta[i] = criticalDelta(gain, loss)
		if d := a.CriticalDelta[i]; d > a.MaxCriticalDelta {
			a.MaxCriticalDelta = d
		}
		if d := criticalDelta(gainEnforced, loss); d > a.ContractEnforced.MaxCriticalDelta {
			a.ContractEnforced.MaxCriticalDelta = d
		}
	}
	return a, nil
}

// criticalDelta returns δ* = g/(g+ℓ), with the conventions: no gain → 0
// (always cooperate); no loss (punishment at least as good as cooperation)
// with positive gain → 1 (never cooperate).
func criticalDelta(gain, loss float64) float64 {
	if gain <= 1e-9 {
		return 0
	}
	if loss <= 0 {
		return 1
	}
	return gain / (gain + loss)
}

// bestDeviation scans organization i's strategy space against the
// cooperative profile and returns its best one-shot gain in two worlds:
// without the contract (it additionally withholds any redistribution it
// would owe) and with it (transfers execute regardless).
func bestDeviation(cfg *game.Config, coop game.Profile, i int) (gain, gainEnforced float64) {
	base := cfg.Payoff(i, coop)
	work := coop.Clone()
	for _, f := range cfg.Orgs[i].CPULevels {
		lo, hi, ok := cfg.FeasibleD(i, f)
		if !ok {
			continue
		}
		for k := 0; k < deviationGrid; k++ {
			d := lo + (hi-lo)*float64(k)/float64(deviationGrid-1)
			work[i] = game.Strategy{D: d, F: f}
			payoff := cfg.Payoff(i, work)
			if g := payoff - base; g > gainEnforced {
				gainEnforced = g
			}
			// Repudiation bonus: withhold owed transfers (only negative
			// R_i can be withheld; received transfers need the others'
			// cooperation anyway).
			withheld := -cfg.Redistribution(i, work)
			if withheld < 0 {
				withheld = 0
			}
			if g := payoff + withheld - base; g > gain {
				gain = g
			}
		}
	}
	work[i] = coop[i]
	return gain, gainEnforced
}

// simulateOptions configures pathPayoff.
type simulateOptions struct {
	// Stages is the number of stage games (default 50).
	Stages int
	// Delta is the common discount factor δ ∈ (0, 1).
	Delta float64
	// Defector is the index of the organization that defects at
	// DefectionStage (-1 for the all-cooperate path).
	Defector int
	// DefectionStage is the 0-based stage of the defection.
	DefectionStage int
	// Analysis must come from analyze on the same config.
	Analysis *analysis
}

// pathPayoff returns each organization's discounted payoff over the
// simulated path: cooperation until DefectionStage, the defection stage
// (the defector pockets its gain), then grim-trigger punishment forever.
// It quantifies exactly when defection is unprofitable: for the defector,
// the all-cooperate path dominates iff δ ≥ δ*_defector.
func pathPayoff(cfg *game.Config, opts simulateOptions) ([]float64, error) {
	if opts.Analysis == nil {
		return nil, errors.New("repeated: missing analysis")
	}
	if opts.Delta <= 0 || opts.Delta >= 1 {
		return nil, fmt.Errorf("repeated: delta %v outside (0,1)", opts.Delta)
	}
	if opts.Stages <= 0 {
		opts.Stages = 50
	}
	n := cfg.N()
	out := make([]float64, n)
	discount := 1.0
	for stage := 0; stage < opts.Stages; stage++ {
		for i := 0; i < n; i++ {
			var stagePayoff float64
			switch {
			case opts.Defector < 0 || stage < opts.DefectionStage:
				stagePayoff = opts.Analysis.Cooperative[i]
			case stage == opts.DefectionStage:
				stagePayoff = opts.Analysis.Cooperative[i]
				if i == opts.Defector {
					stagePayoff += opts.Analysis.DefectionGain[i]
				}
			default:
				stagePayoff = opts.Analysis.Punishment[i]
			}
			out[i] += discount * stagePayoff
		}
		discount *= opts.Delta
	}
	return out, nil
}

// cooperationSustainable reports whether the all-cooperate path is an
// equilibrium of the repeated game at discount factor delta, with and
// without contract enforcement.
func (a *analysis) cooperationSustainable(delta float64) (withoutContract, withContract bool) {
	return delta >= a.MaxCriticalDelta && a.MaxCriticalDelta < 1,
		delta >= a.ContractEnforced.MaxCriticalDelta
}
