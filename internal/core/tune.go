package core

import (
	"fmt"
	"math"

	"tradefl/internal/dbr"
)

// The γ search of TuneGamma.
const (
	// tuneLo and tuneHi bound the search interval.
	tuneLo = 1e-10
	tuneHi = 2e-7
	// tuneCoarse is the number of log-spaced coarse probes.
	tuneCoarse = 12
	// tuneRefine is the number of golden-section refinement steps around
	// the best coarse probe.
	tuneRefine = 20
)

// TuneResult reports the welfare-maximizing incentive intensity.
type TuneResult struct {
	// Gamma is the measured γ*.
	Gamma float64
	// Welfare is the social welfare at γ*.
	Welfare float64
	// Probes records every (γ, welfare) pair evaluated, sorted by γ.
	Probes []GammaProbe
}

// GammaProbe is one evaluated point of the tuning sweep.
type GammaProbe struct {
	Gamma   float64 `json:"gamma"`
	Welfare float64 `json:"welfare"`
}

// TuneGamma searches for the welfare-maximizing incentive intensity γ* of
// the mechanism's game instance — the quantity the paper's Fig. 10 reads
// off its sweep (γ* = 5.12e-9 there). The equilibrium welfare is evaluated
// with DBR at log-spaced coarse probes, then refined by golden-section
// search on log γ around the best probe. The mechanism's config is not
// mutated.
func (m *Mechanism) TuneGamma() (*TuneResult, error) {
	res := &TuneResult{}
	eval := func(gamma float64) (float64, error) {
		cfg := *m.cfg
		cfg.Gamma = gamma
		r, err := dbr.Solve(&cfg, nil, dbr.Options{})
		if err != nil {
			return 0, fmt.Errorf("tradefl: tune at γ=%g: %w", gamma, err)
		}
		w := cfg.SocialWelfare(r.Profile)
		res.Probes = append(res.Probes, GammaProbe{Gamma: gamma, Welfare: w})
		return w, nil
	}

	// Coarse log-spaced sweep.
	logLo, logHi := math.Log(tuneLo), math.Log(tuneHi)
	bestIdx, bestW := 0, math.Inf(-1)
	coarse := make([]float64, tuneCoarse)
	for k := 0; k < tuneCoarse; k++ {
		g := math.Exp(logLo + (logHi-logLo)*float64(k)/float64(tuneCoarse-1))
		coarse[k] = g
		w, err := eval(g)
		if err != nil {
			return nil, err
		}
		if w > bestW {
			bestW, bestIdx = w, k
		}
	}
	// Golden-section refinement on log γ between the probe's neighbours.
	lo := coarse[max(0, bestIdx-1)]
	hi := coarse[min(tuneCoarse-1, bestIdx+1)]
	a, b := math.Log(lo), math.Log(hi)
	const invPhi = 0.6180339887498949
	c := b - invPhi*(b-a)
	d := a + invPhi*(b-a)
	fc, err := eval(math.Exp(c))
	if err != nil {
		return nil, err
	}
	fd, err := eval(math.Exp(d))
	if err != nil {
		return nil, err
	}
	for step := 0; step < tuneRefine && b-a > 1e-3; step++ {
		if fc >= fd {
			b, d, fd = d, c, fc
			c = b - invPhi*(b-a)
			if fc, err = eval(math.Exp(c)); err != nil {
				return nil, err
			}
		} else {
			a, c, fc = c, d, fd
			d = a + invPhi*(b-a)
			if fd, err = eval(math.Exp(d)); err != nil {
				return nil, err
			}
		}
	}
	// Best over every probe (coarse grid included: the welfare landscape
	// can be piecewise flat, so golden section alone is not trusted).
	for _, p := range res.Probes {
		if p.Welfare > res.Welfare || res.Gamma == 0 {
			res.Gamma, res.Welfare = p.Gamma, p.Welfare
		}
	}
	sortProbes(res.Probes)
	return res, nil
}

func sortProbes(ps []GammaProbe) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].Gamma < ps[j-1].Gamma; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}
