// Package campaign simulates the TradeFL mechanism operated over many
// training epochs with drifting market conditions — the operational layer a
// real consortium would run. Each epoch the organizations' profitability
// and data stocks drift, the coopetition game is re-solved, and the
// transfers are settled; the operator can keep the incentive intensity γ
// fixed or retune it to the current welfare optimum (Mechanism.TuneGamma).
// Comparing the two policies quantifies how much the paper's observation
// that "an appropriate γ helps maximize social welfare" matters once the
// environment moves.
package campaign

import (
	"context"
	"errors"
	"fmt"

	"tradefl/internal/core"
	"tradefl/internal/fleet"
	"tradefl/internal/game"
	"tradefl/internal/obs"
	"tradefl/internal/randx"
)

// GammaPolicy selects how γ evolves across epochs.
type GammaPolicy int

// Gamma policies.
const (
	// GammaFixed keeps the initial γ for the whole campaign.
	GammaFixed GammaPolicy = iota + 1
	// GammaAdaptive retunes γ to the welfare-maximizing value each epoch.
	GammaAdaptive
)

// Config parameterizes a campaign run.
type Config struct {
	// Base is the epoch-0 game; it is deep-copied, never mutated.
	Base *game.Config
	// Epochs is the number of stage games (default 10).
	Epochs int
	// ProfitDriftStd is the per-epoch lognormal-ish drift of p_i (relative
	// std, default 0.05).
	ProfitDriftStd float64
	// DataGrowth is the per-epoch relative growth of each |S_i| and s_i
	// (default 0.02; organizations accumulate data over time).
	DataGrowth float64
	// Policy selects the γ policy (default GammaFixed).
	Policy GammaPolicy
	// Seed drives the drift (default 1).
	Seed int64
	// Plan selects the solver for the per-epoch re-solves, which run
	// through a single fleet engine. The zero value keeps the campaign's
	// historical solver, distributed best response; auto planning is not
	// offered here because every epoch has the same organization count, so
	// the planner would pick one plan for the whole campaign anyway — name
	// it explicitly instead.
	Plan fleet.Plan
}

func (c Config) withDefaults() Config {
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	if c.ProfitDriftStd == 0 {
		c.ProfitDriftStd = 0.05
	}
	if c.DataGrowth == 0 {
		c.DataGrowth = 0.02
	}
	if c.Policy == 0 {
		c.Policy = GammaFixed
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Plan == fleet.PlanAuto {
		c.Plan = fleet.PlanDBR
	}
	return c
}

// EpochResult records one stage of the campaign.
type EpochResult struct {
	Epoch     int     `json:"epoch"`
	Gamma     float64 `json:"gamma"`
	Welfare   float64 `json:"welfare"`
	TotalData float64 `json:"totalData"`
	Damage    float64 `json:"damage"`
	// Transfers is R_i per organization for the epoch.
	Transfers []float64 `json:"transfers"`
}

// Result is the full campaign outcome.
type Result struct {
	Epochs []EpochResult `json:"epochs"`
	// CumulativeTransfers sums each organization's transfers over the
	// campaign (Σ over organizations is ~0 every epoch: budget balance).
	CumulativeTransfers []float64 `json:"cumulativeTransfers"`
	// MeanWelfare is the average per-epoch social welfare.
	MeanWelfare float64 `json:"meanWelfare"`
}

// cloneConfig deep-copies the mutable parts of a game config.
func cloneConfig(src *game.Config) *game.Config {
	dst := *src
	dst.Orgs = make([]game.Organization, len(src.Orgs))
	copy(dst.Orgs, src.Orgs)
	for i := range src.Orgs {
		dst.Orgs[i].CPULevels = append([]float64(nil), src.Orgs[i].CPULevels...)
	}
	dst.Rho = make([][]float64, len(src.Rho))
	for i := range src.Rho {
		dst.Rho[i] = append([]float64(nil), src.Rho[i]...)
	}
	return &dst
}

// Run executes the campaign.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Base == nil {
		return nil, errors.New("campaign: nil base config")
	}
	if err := cfg.Base.Validate(); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	src := randx.New(cfg.Seed)
	current := cloneConfig(cfg.Base)
	// One fleet engine for the whole campaign: the per-epoch results are
	// byte-identical to direct solves (the engine's determinism contract —
	// asserted by TestCampaignFleetByteIdentical).
	eng := fleet.New(fleet.Options{Plan: cfg.Plan})
	res := &Result{CumulativeTransfers: make([]float64, current.N())}
	ctx, runSpan := obs.Span(context.Background(), "campaign.run")
	defer runSpan.End()
	var welfareSum float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		_, epochSpan := obs.Span(ctx, fmt.Sprintf("campaign.epoch-%d", epoch))
		if epoch > 0 {
			drift(current, src, cfg)
		}
		gamma := current.Gamma
		if cfg.Policy == GammaAdaptive {
			mech, err := core.New(current)
			if err != nil {
				return nil, fmt.Errorf("campaign epoch %d: %w", epoch, err)
			}
			tuned, err := mech.TuneGamma()
			if err != nil {
				return nil, fmt.Errorf("campaign epoch %d: tune: %w", epoch, err)
			}
			gamma = tuned.Gamma
			current.Gamma = gamma
		}
		solved := eng.SolveOneCtx(ctx, current)
		if solved.Err != nil {
			return nil, fmt.Errorf("campaign epoch %d: %w", epoch, solved.Err)
		}
		er := EpochResult{
			Epoch:     epoch,
			Gamma:     gamma,
			Welfare:   solved.Welfare,
			Damage:    current.TotalDamage(solved.Profile),
			Transfers: make([]float64, current.N()),
		}
		for i, s := range solved.Profile {
			er.TotalData += s.D
			er.Transfers[i] = current.Redistribution(i, solved.Profile)
			res.CumulativeTransfers[i] += er.Transfers[i]
		}
		welfareSum += er.Welfare
		res.Epochs = append(res.Epochs, er)
		epochSpan.End()
	}
	res.MeanWelfare = welfareSum / float64(cfg.Epochs)
	return res, nil
}

// drift applies one epoch of market movement: profitability random walk
// (clipped to the Table II range) and data growth, then re-normalizes ρ so
// the potential-game weights stay valid.
func drift(cfg *game.Config, src *randx.Source, c Config) {
	for i := range cfg.Orgs {
		o := &cfg.Orgs[i]
		o.Profitability = randx.Clip(o.Profitability*(1+src.Normal(0, c.ProfitDriftStd)), 500, 2500)
		growth := 1 + c.DataGrowth*src.Uniform(0.5, 1.5)
		o.DataBits *= growth
		o.Samples *= growth
	}
	cfg.NormalizeRho(game.DefaultZMargin)
}
