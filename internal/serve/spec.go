package serve

import (
	"encoding/json"
	"fmt"

	"tradefl/internal/accuracy"
	"tradefl/internal/fleet"
	"tradefl/internal/game"
	"tradefl/internal/jsonx"
)

// JobSpec is the JSON body of a job submission: either a list of explicit
// game instances or a seeded generator request, plus an optional solver
// plan. Exactly one of Games and Generate must be set.
type JobSpec struct {
	// Games holds fully specified instances, each validated against
	// game.Config.Validate before admission.
	Games []GameSpec `json:"games,omitempty"`
	// Generate draws seeded Table II instances server-side — the cheap way
	// to submit a large batch without shipping megabytes of config.
	Generate *GenSpec `json:"generate,omitempty"`
	// Plan forces one solver for every instance: auto (default), dbr,
	// pruned or traversal.
	Plan string `json:"plan,omitempty"`
}

// GameSpec is one explicit instance: the game.Config JSON shape (orgs,
// rho, gamma, ...) plus the accuracy model, which the config itself cannot
// carry (it is an interface and marshals as json:"-").
type GameSpec struct {
	game.Config
	// Accuracy selects the data-accuracy model P(Ω); the zero value is the
	// paper's default (sqrt-loss over kilosamples).
	Accuracy AccuracySpec `json:"accuracy"`
}

// AccuracySpec names an accuracy model and its parameters.
type AccuracySpec struct {
	// Model is sqrt-loss (default), power-law or log-saturation.
	Model string `json:"model,omitempty"`
	// Epochs and A0 parameterize sqrt-loss (defaults: the Table II
	// calibration, G=5 and A(0)=1.1).
	Epochs float64 `json:"epochs,omitempty"`
	A0     float64 `json:"a0,omitempty"`
	// A and B parameterize power-law P(Ω) = 1 − A·Ω^−B.
	A float64 `json:"a,omitempty"`
	B float64 `json:"b,omitempty"`
	// C parameterizes log-saturation P(Ω) = A·log(1 + Ω/C).
	C float64 `json:"c,omitempty"`
	// OmegaUnit rescales the model's Ω argument (0 = the calibrated
	// default of 1000 samples for sqrt-loss, unscaled otherwise).
	OmegaUnit float64 `json:"omegaUnit,omitempty"`
}

// GenSpec asks the server to draw Count seeded default-config instances,
// cycling seeds Seed, Seed+1, ... — the same corpus shape the fleet bench
// uses, so a gateway smoke run is comparable to BenchmarkFleetSolve.
type GenSpec struct {
	Count    int     `json:"count"`
	N        int     `json:"n,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	Mu       float64 `json:"mu,omitempty"`
	Gamma    float64 `json:"gamma,omitempty"`
	CPUSteps int     `json:"cpuSteps,omitempty"`
}

// Limits bounds what one job may ask for; admission rejects specs past
// them before any solver work happens.
type Limits struct {
	// MaxOrgs caps N per instance.
	MaxOrgs int
	// MaxInstances caps instances per job.
	MaxInstances int
}

// maxGenCPUSteps caps a generated instance's CPU grid. Six integers in a
// generate spec size everything the server then allocates: without the cap
// one small body asks for a grid of 2⁶³ levels per organization. (The
// paper's grids have 3 to 10 levels; explicit games are bounded by the
// request body instead.)
const maxGenCPUSteps = 64

// model builds the accuracy.Model the spec names.
func (a AccuracySpec) model() (accuracy.Model, error) {
	unit := a.OmegaUnit
	switch a.Model {
	case "", "sqrt-loss":
		epochs, a0 := a.Epochs, a.A0
		if epochs == 0 {
			epochs = game.DefaultEpochs
		}
		if a0 == 0 {
			a0 = game.DefaultA0
		}
		if unit == 0 {
			unit = game.DefaultOmegaUnit
		}
		return accuracy.NewScaled(accuracy.NewSqrtLoss(epochs, a0), unit)
	case "power-law":
		m, err := accuracy.NewPowerLaw(a.A, a.B)
		if err != nil {
			return nil, err
		}
		if unit == 0 {
			return m, nil
		}
		return accuracy.NewScaled(m, unit)
	case "log-saturation":
		m, err := accuracy.NewLogSaturation(a.A, a.C)
		if err != nil {
			return nil, err
		}
		if unit == 0 {
			return m, nil
		}
		return accuracy.NewScaled(m, unit)
	default:
		return nil, fmt.Errorf("unknown accuracy model %q (want sqrt-loss, power-law or log-saturation)", a.Model)
	}
}

// ParseJobSpec decodes and validates a job submission against the
// gateway's limits, returning the ready-to-solve configs and the forced
// plan. Every config passes game.Config.Validate, so a malformed instance
// is a 400 at the edge rather than a solver error mid-job.
//
// A body in canonical form (decode.go) is decoded in one pass; any other
// body, valid or not, goes through encoding/json, which therefore defines
// what is accepted, what it decodes to and every parse error.
func ParseJobSpec(raw []byte, lim Limits) ([]*game.Config, fleet.Plan, error) {
	var spec JobSpec
	if !decodeCanonical(raw, &spec) {
		spec = JobSpec{}
		if err := json.Unmarshal(raw, &spec); err != nil {
			return nil, 0, fmt.Errorf("parse job spec: %w", err)
		}
	}
	plan, err := fleet.ParsePlan(orDefault(spec.Plan, "auto"))
	if err != nil {
		return nil, 0, err
	}
	cfgs, err := spec.configs(lim)
	if err != nil {
		return nil, 0, err
	}
	return cfgs, plan, nil
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

func (s *JobSpec) configs(lim Limits) ([]*game.Config, error) {
	switch {
	case len(s.Games) > 0 && s.Generate != nil:
		return nil, fmt.Errorf("job spec: games and generate are mutually exclusive")
	case len(s.Games) > 0:
		if lim.MaxInstances > 0 && len(s.Games) > lim.MaxInstances {
			return nil, fmt.Errorf("job spec: %d instances exceed the per-job limit %d", len(s.Games), lim.MaxInstances)
		}
		cfgs := make([]*game.Config, len(s.Games))
		for i := range s.Games {
			g := &s.Games[i]
			model, err := g.Accuracy.model()
			if err != nil {
				return nil, fmt.Errorf("instance %d: %w", i, err)
			}
			cfg := g.Config
			cfg.Accuracy = model
			if lim.MaxOrgs > 0 && cfg.N() > lim.MaxOrgs {
				return nil, fmt.Errorf("instance %d: %d organizations exceed the limit %d", i, cfg.N(), lim.MaxOrgs)
			}
			if err := cfg.Validate(); err != nil {
				return nil, fmt.Errorf("instance %d: %w", i, err)
			}
			cfgs[i] = &cfg
		}
		return cfgs, nil
	case s.Generate != nil:
		return s.Generate.configs(lim)
	default:
		return nil, fmt.Errorf("job spec: need games or generate")
	}
}

func (g *GenSpec) configs(lim Limits) ([]*game.Config, error) {
	if g.Count <= 0 {
		return nil, fmt.Errorf("generate: count must be positive")
	}
	if lim.MaxInstances > 0 && g.Count > lim.MaxInstances {
		return nil, fmt.Errorf("generate: %d instances exceed the per-job limit %d", g.Count, lim.MaxInstances)
	}
	if lim.MaxOrgs > 0 && g.N > lim.MaxOrgs {
		return nil, fmt.Errorf("generate: %d organizations exceed the limit %d", g.N, lim.MaxOrgs)
	}
	if g.N < 0 {
		return nil, fmt.Errorf("generate: n must not be negative")
	}
	if g.CPUSteps < 0 || g.CPUSteps > maxGenCPUSteps {
		return nil, fmt.Errorf("generate: cpuSteps %d outside [0, %d]", g.CPUSteps, maxGenCPUSteps)
	}
	// ρ_ij ~ N(μ, (μ/5)²) clipped to [0, 1]: a negative μ makes σ negative
	// and every draw clip to 0, a silent ρ ≡ 0 game nobody asked for.
	if !(g.Mu >= 0 && g.Mu <= 1) {
		return nil, fmt.Errorf("generate: mu %v outside [0, 1]", g.Mu)
	}
	if !jsonx.Finite(g.Gamma) {
		return nil, fmt.Errorf("generate: gamma %v is not finite", g.Gamma)
	}
	seed := g.Seed
	if seed == 0 {
		seed = 1
	}
	cfgs := make([]*game.Config, g.Count)
	for i := range cfgs {
		cfg, err := game.DefaultConfig(game.GenOptions{
			N:        g.N,
			Mu:       g.Mu,
			Gamma:    g.Gamma,
			CPUSteps: g.CPUSteps,
			Seed:     seed + int64(i),
		})
		if err != nil {
			return nil, fmt.Errorf("generate instance %d: %w", i, err)
		}
		cfgs[i] = cfg
	}
	return cfgs, nil
}
