package experiments

import (
	"context"
	"errors"
	"fmt"

	"tradefl/internal/core"
	"tradefl/internal/dbr"
	"tradefl/internal/fleet"
	"tradefl/internal/game"
	"tradefl/internal/obs"
	"tradefl/internal/randx"
)

// ExtPersonalization is an extension experiment beyond the paper (its
// Sec. VII future work): sweep the personalization degree α and record the
// DBR equilibrium's welfare, total data contribution and coopetition
// damage. Personalization has two opposing effects — it weakens the shared
// component competitors can exploit (damage ↓ with (1−α)) while giving each
// organization a private return on its own data (participation pressure ↑).
func ExtPersonalization(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	alphas := []float64{0, 0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9}
	if opts.Quick {
		alphas = []float64{0, 0.3, 0.6, 0.9}
	}
	welfare := Series{Name: "welfare"}
	data := Series{Name: "data"}
	damage := Series{Name: "damage"}
	for _, alpha := range alphas {
		cfg, err := defaultGame(opts, nil)
		if err != nil {
			return nil, err
		}
		cfg.Personal = game.Personalization{Alpha: alpha, LocalBoost: 2}
		res, err := dbr.Solve(cfg, nil, dbr.Options{})
		if err != nil {
			return nil, fmt.Errorf("alpha %v: %w", alpha, err)
		}
		var sumD float64
		for _, s := range res.Profile {
			sumD += s.D
		}
		welfare.X = append(welfare.X, alpha)
		welfare.Y = append(welfare.Y, cfg.SocialWelfare(res.Profile))
		data.X = append(data.X, alpha)
		data.Y = append(data.Y, sumD)
		damage.X = append(damage.X, alpha)
		damage.Y = append(damage.Y, cfg.TotalDamage(res.Profile))
	}
	return &Figure{
		ID:     "ext-personalization",
		Title:  "Personalization extension: equilibrium vs α (future work, Sec. VII)",
		XLabel: "alpha",
		YLabel: "welfare / Σd_i / damage (per series)",
		Series: []Series{welfare, data, damage},
		Notes: []string{fmt.Sprintf(
			"damage falls from %.2f (α=0) to %.2f (α=%.2f); data moves from %.2f to %.2f",
			damage.Y[0], damage.Y[len(damage.Y)-1], alphas[len(alphas)-1],
			data.Y[0], data.Y[len(data.Y)-1])},
	}, nil
}

// ExtCampaign is an extension experiment: the mechanism operated over many
// epochs with drifting profitability and growing data stocks, comparing a
// fixed γ against per-epoch adaptive retuning (Mechanism.TuneGamma). It
// quantifies the operational value of the paper's "appropriate γ*"
// observation once the market moves.
func ExtCampaign(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	epochs := 8
	if opts.Quick {
		epochs = 3
	}
	base, err := defaultGame(opts, nil)
	if err != nil {
		return nil, err
	}
	// Handicap the fixed policy with a stale γ (a tenth of the calibrated
	// optimum), the situation an operator who never retunes ends up in.
	stale := *base
	stale.Gamma = base.Gamma / 10
	fixed, err := runCampaign(campaign{base: &stale, epochs: epochs, seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	adaptive, err := runCampaign(campaign{base: &stale, epochs: epochs, seed: opts.Seed, adaptive: true})
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "ext-campaign",
		Title:  "Campaign extension: welfare per epoch, fixed vs adaptive γ",
		XLabel: "epoch",
		YLabel: "social welfare",
	}
	fx := Series{Name: "fixed-gamma"}
	ad := Series{Name: "adaptive-gamma"}
	for k, w := range fixed.welfare {
		fx.X = append(fx.X, float64(k))
		fx.Y = append(fx.Y, w)
	}
	for k, w := range adaptive.welfare {
		ad.X = append(ad.X, float64(k))
		ad.Y = append(ad.Y, w)
	}
	fig.Series = []Series{fx, ad}
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"mean welfare: fixed %.1f vs adaptive %.1f (+%.1f%%)",
		fixed.meanWelfare, adaptive.meanWelfare,
		100*(adaptive.meanWelfare/fixed.meanWelfare-1)))
	return fig, nil
}

// A campaign operates the mechanism over many training epochs with
// drifting market conditions, the operational layer a real consortium
// would run. Each epoch the organizations' profitability and data stocks
// drift, and the coopetition game is re-solved; the operator keeps the
// incentive intensity γ fixed or retunes it to the current welfare optimum
// (Mechanism.TuneGamma).
type campaign struct {
	// base is the epoch-0 game; it is deep-copied, never mutated.
	base   *game.Config
	epochs int
	// seed drives the drift.
	seed int64
	// adaptive retunes γ to the welfare-maximizing value each epoch;
	// otherwise the initial γ holds for the whole campaign.
	adaptive bool
}

// Per-epoch drift: each p_i takes a relative normal step of
// campaignProfitDrift, and each |S_i| and s_i grows by
// campaignDataGrowth·U[0.5, 1.5] (organizations accumulate data).
const (
	campaignProfitDrift = 0.05
	campaignDataGrowth  = 0.02
)

// campaignResult is a campaign's social welfare per epoch and its mean.
type campaignResult struct {
	welfare     []float64
	meanWelfare float64
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

// runCampaign executes the campaign. Every epoch is solved by distributed
// best response through one fleet engine; the per-epoch results are
// byte-identical to direct solves (the engine's determinism contract,
// asserted by TestCampaignFleetByteIdentical).
func runCampaign(c campaign) (*campaignResult, error) {
	if c.base == nil {
		return nil, errors.New("campaign: nil base config")
	}
	if err := c.base.Validate(); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	src := randx.New(c.seed)
	current := cloneConfig(c.base)
	eng := fleet.New(fleet.Options{Plan: fleet.PlanDBR})
	res := &campaignResult{}
	ctx, runSpan := obs.Span(context.Background(), "campaign.run")
	defer runSpan.End()
	var welfareSum float64
	for epoch := 0; epoch < c.epochs; epoch++ {
		_, epochSpan := obs.Span(ctx, fmt.Sprintf("campaign.epoch-%d", epoch))
		if epoch > 0 {
			drift(current, src)
		}
		if c.adaptive {
			mech, err := core.New(current)
			if err != nil {
				return nil, fmt.Errorf("campaign epoch %d: %w", epoch, err)
			}
			tuned, err := mech.TuneGamma()
			if err != nil {
				return nil, fmt.Errorf("campaign epoch %d: tune: %w", epoch, err)
			}
			current.Gamma = tuned.Gamma
		}
		solved := eng.SolveOneCtx(ctx, current)
		if solved.Err != nil {
			return nil, fmt.Errorf("campaign epoch %d: %w", epoch, solved.Err)
		}
		res.welfare = append(res.welfare, solved.Welfare)
		welfareSum += solved.Welfare
		epochSpan.End()
	}
	res.meanWelfare = welfareSum / float64(c.epochs)
	return res, nil
}

// drift applies one epoch of market movement: profitability random walk
// (clipped to the Table II range) and data growth, then re-normalizes ρ so
// the potential-game weights stay valid.
func drift(cfg *game.Config, src *randx.Source) {
	for i := range cfg.Orgs {
		o := &cfg.Orgs[i]
		o.Profitability = randx.Clip(o.Profitability*(1+src.Normal(0, campaignProfitDrift)), 500, 2500)
		growth := 1 + campaignDataGrowth*src.Uniform(0.5, 1.5)
		o.DataBits *= growth
		o.Samples *= growth
	}
	cfg.NormalizeRho(game.DefaultZMargin)
}
