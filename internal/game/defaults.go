package game

import (
	"fmt"
	"sync"

	"tradefl/internal/accuracy"
	"tradefl/internal/comm"
	"tradefl/internal/randx"
)

// Table II constants from the paper, plus the calibrated defaults for the
// constants the paper leaves unstated (DESIGN.md §6).
const (
	// DefaultN is |N|, the number of organizations.
	DefaultN = 10
	// DefaultDMin is D_min (Table II lists "|N| 10/0.01").
	DefaultDMin = 0.01
	// DefaultKappa is κ, the effective chipset capacitance.
	DefaultKappa = 1e-27
	// DefaultGamma is the measured welfare-maximizing incentive intensity
	// γ* of the default instance (the analogue of the paper's
	// γ* = 5.12e-9 in Fig. 10; the absolute value of γ trades off against
	// the paper's unstated η, ϖ_e and ρ normalization, see EXPERIMENTS.md).
	DefaultGamma = 1.6e-8
	// DefaultLambda is λ, the unit-uniforming weight of f in x_i. It is
	// kept small so that the redistribution index is dominated by data
	// contribution; a large λ lets organizations farm transfers by racing
	// CPU frequency instead of contributing data.
	DefaultLambda = 0.1
	// DefaultEnergyWeight is ϖ_e.
	DefaultEnergyWeight = 0.85
	// DefaultEpochs is G, the training epoch count of the accuracy bound.
	DefaultEpochs = 5
	// DefaultA0 is A(0), the untrained model's accuracy loss, calibrated so
	// default-instance social welfare lands near the paper's ~8.6e3 scale.
	DefaultA0 = 1.1
	// DefaultOmegaUnit measures Ω in kilosamples: the sqrt-loss bound is
	// calibrated on Ω/1000 so that the revenue curve is still rising over
	// the attainable data range (DESIGN.md §6).
	DefaultOmegaUnit = 1000.0
	// DefaultMu is the mean competition intensity for ρ ~ N(μ, (μ/5)²).
	DefaultMu = 0.1
	// DefaultCyclesPerBit is η_i (effective cycles per bit of data).
	DefaultCyclesPerBit = 1.0
	// DefaultDeadline is τ in seconds, calibrated so the deadline binds at
	// the slow end of the CPU grid (cap < 1 for large datasets at 3 GHz)
	// but is loose at the fast end — the tension Sec. V analyses.
	DefaultDeadline = 5.5
	// DefaultTransferTime is T1 = T3 in seconds.
	DefaultTransferTime = 0.25
	// DefaultTransferPower is E_DL = E_UL in watts.
	DefaultTransferPower = 10.0
	// DefaultZMargin keeps z_i ≥ margin·p_i when normalizing ρ.
	DefaultZMargin = 0.02
)

// DefaultCPULevels returns the discrete frequency grid F_i (3-5 GHz,
// Table II) with m levels.
func DefaultCPULevels(m int) []float64 {
	if m < 1 {
		m = 1
	}
	levels := make([]float64, m)
	lo, hi := 3e9, 5e9
	if m == 1 {
		return []float64{hi}
	}
	for k := range levels {
		levels[k] = lo + (hi-lo)*float64(k)/float64(m-1)
	}
	return levels
}

// GenOptions controls DefaultConfig generation. The zero value is replaced
// by Table II defaults field-by-field.
type GenOptions struct {
	N         int     // number of organizations (default DefaultN)
	Mu        float64 // mean competition intensity (default DefaultMu)
	Gamma     float64 // incentive intensity (default DefaultGamma)
	CPUSteps  int     // size m of each CPU grid (default 3)
	Epochs    float64 // G of the sqrt-loss accuracy bound (default DefaultEpochs)
	EnergyW   float64 // ϖ_e (default DefaultEnergyWeight)
	Seed      int64   // RNG seed (default 1)
	Accuracy  accuracy.Model
	NoOrgName bool // leave Name empty (micro-benchmarks)
}

func (o GenOptions) withDefaults() GenOptions {
	if o.N == 0 {
		o.N = DefaultN
	}
	if o.Mu == 0 {
		o.Mu = DefaultMu
	}
	if o.Gamma == 0 {
		o.Gamma = DefaultGamma
	}
	if o.CPUSteps == 0 {
		o.CPUSteps = 3
	}
	if o.Epochs == 0 {
		o.Epochs = DefaultEpochs
	}
	if o.EnergyW == 0 {
		o.EnergyW = DefaultEnergyWeight
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// sources recycles generator states across DefaultConfig calls; each call
// re-seeds the one it draws, so the instance depends on the seed alone.
var sources = sync.Pool{New: func() any { return randx.New(1) }}

// orgNames holds DefaultConfig's names for the sizes instances come in.
var orgNames = func() (names [100]string) {
	for i := range names {
		names[i] = fmt.Sprintf("org-%02d", i)
	}
	return names
}()

// orgName returns "org-%02d" of i.
func orgName(i int) string {
	if i < len(orgNames) {
		return orgNames[i]
	}
	return fmt.Sprintf("org-%02d", i)
}

// DefaultConfig is DefaultInstance's game, for a caller that changes it
// before use (a changed game is checked again where it is solved): drawn
// and checked alike, without the instance's rows.
func DefaultConfig(opts GenOptions) (*Config, error) {
	cfg := new(Config)
	if err := draw(cfg, opts); err != nil {
		return nil, err
	}
	if err := cfg.check(nil); err != nil {
		return nil, fmt.Errorf("default config: %w", err)
	}
	return cfg, nil
}

// DefaultInstance draws a game instance from the Table II parameter ranges:
// p_i ~ U[500, 2500], s_i ~ U[15, 25]·10⁹ bits, |S_i| ~ U[1000, 2000]
// samples, F_i a grid over 3-5 GHz, κ = 10⁻²⁷, and ρ ~ N(μ, (μ/5)²)
// symmetric, rescaled so every z_i > 0. The accuracy model defaults to the
// footnote-7 sqrt-loss bound over Ω in samples. The drawn config is the
// instance's own, checked once.
func DefaultInstance(opts GenOptions) (*Instance, error) {
	in := new(Instance)
	if err := draw(&in.cfg, opts); err != nil {
		return nil, err
	}
	if _, err := in.check(); err != nil {
		return nil, fmt.Errorf("default config: %w", err)
	}
	return in, nil
}

// draw fills cfg with DefaultInstance's game, ρ capped but unchecked.
func draw(cfg *Config, opts GenOptions) error {
	opts = opts.withDefaults()
	src := sources.Get().(*randx.Source)
	defer sources.Put(src)
	src.Seed(opts.Seed)
	orgs := make([]Organization, opts.N)
	for i := range orgs {
		name := ""
		if !opts.NoOrgName {
			name = orgName(i)
		}
		orgs[i] = Organization{
			Name:          name,
			DataBits:      src.Uniform(15e9, 25e9),
			Samples:       float64(src.UniformInt(1000, 2000)),
			Profitability: src.Uniform(500, 2500),
			CPULevels:     DefaultCPULevels(opts.CPUSteps),
			Comm: comm.Profile{
				DownloadTime:  DefaultTransferTime,
				UploadTime:    DefaultTransferTime,
				CyclesPerBit:  DefaultCyclesPerBit,
				DownloadPower: DefaultTransferPower,
				UploadPower:   DefaultTransferPower,
				Kappa:         DefaultKappa,
			},
		}
	}
	model := opts.Accuracy
	if model == nil {
		scaled, err := accuracy.NewScaled(accuracy.NewSqrtLoss(opts.Epochs, DefaultA0), DefaultOmegaUnit)
		if err != nil {
			return fmt.Errorf("default config: %w", err)
		}
		model = scaled
	}
	*cfg = Config{
		Orgs:           orgs,
		Rho:            src.CompetitionMatrix(opts.N, opts.Mu),
		Gamma:          opts.Gamma,
		Lambda:         DefaultLambda,
		EnergyWeight:   opts.EnergyW,
		DMin:           DefaultDMin,
		Deadline:       DefaultDeadline,
		Accuracy:       model,
		OmegaInSamples: true,
	}
	cfg.NormalizeRho(DefaultZMargin)
	return nil
}
