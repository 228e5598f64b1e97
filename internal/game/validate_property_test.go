package game_test

import (
	"math"
	"math/rand"
	"testing"

	"tradefl/internal/accuracy"
	"tradefl/internal/comm"
	"tradefl/internal/dbr"
	"tradefl/internal/game"
	"tradefl/internal/gbd"
)

// extreme draws a scalar from [lo, hi] that sits on an end of the range one
// time in three each, else anywhere in it by exponent.
func extreme(r *rand.Rand, lo, hi float64) float64 {
	switch r.Intn(3) {
	case 0:
		return lo
	case 1:
		return hi
	}
	return math.Exp(math.Log(lo) + r.Float64()*(math.Log(hi)-math.Log(lo)))
}

// extremeConfig draws a game whose every scalar ranges over all Validate
// admits, the ends of each range included.
func extremeConfig(r *rand.Rand) *game.Config {
	const top = game.MaxMagnitude
	n := 1 + r.Intn(5)
	cfg := &game.Config{
		Orgs:           make([]game.Organization, n),
		Rho:            make([][]float64, n),
		Gamma:          extreme(r, 1e-300, top),
		Lambda:         extreme(r, 1e-300, top),
		EnergyWeight:   extreme(r, 1e-300, top),
		DMin:           extreme(r, 1e-300, 1),
		OmegaInSamples: r.Intn(2) == 0,
	}
	if r.Intn(4) == 0 {
		cfg.Gamma = 0
	}
	if r.Intn(3) == 0 {
		cfg.Personal = game.Personalization{Alpha: extreme(r, 1e-300, 1-0x1p-53), LocalBoost: extreme(r, 1e-300, top)}
	}
	for i := range cfg.Orgs {
		levels := make([]float64, 1+r.Intn(3))
		f := extreme(r, 1e-300, top/8)
		for k := range levels {
			levels[k] = f
			f *= 2
		}
		cfg.Orgs[i] = game.Organization{
			DataBits:      extreme(r, 1e-300, top),
			Samples:       extreme(r, 1e-300, top),
			Profitability: extreme(r, 1e-14, top), // (1−α)·z_i ≥ 1/top needs p_i over it
			CPULevels:     levels,
			Quality:       extreme(r, 1e-300, 1),
			Comm: comm.Profile{
				DownloadTime:  extreme(r, 1e-300, top),
				UploadTime:    extreme(r, 1e-300, top),
				CyclesPerBit:  extreme(r, 1e-300, top),
				DownloadPower: extreme(r, 1e-300, top),
				UploadPower:   extreme(r, 1e-300, top),
				Kappa:         extreme(r, 1e-300, top),
			},
		}
	}
	// Two draws in three, a deadline every organization can meet at D_min
	// on its fastest level (so the solvers have a start), up to 1000× looser.
	cfg.Deadline = extreme(r, 1e-300, top)
	if r.Intn(3) > 0 {
		var need float64
		for _, o := range cfg.Orgs {
			need = math.Max(need, o.Comm.RoundTime(cfg.DMin, o.DataBits, o.CPULevels[len(o.CPULevels)-1]))
		}
		cfg.Deadline = math.Min(top, need*extreme(r, 1+1e-9, 1e3))
	}
	for i := range cfg.Rho {
		cfg.Rho[i] = make([]float64, n)
		for j := 0; j < i; j++ {
			cfg.Rho[i][j] = extreme(r, 1e-300, 1)
			cfg.Rho[j][i] = cfg.Rho[i][j]
		}
	}
	cfg.NormalizeRho(extreme(r, 1e-300, 0.5))
	switch r.Intn(4) {
	case 0:
		cfg.Accuracy = accuracy.NewSqrtLoss(extreme(r, 1e-300, top), extreme(r, 1e-300, top))
	case 1:
		cfg.Accuracy, _ = accuracy.NewPowerLaw(extreme(r, 1e-300, top), extreme(r, 1e-300, 1-0x1p-53))
	case 2:
		cfg.Accuracy, _ = accuracy.NewLogSaturation(extreme(r, 1e-300, top), extreme(r, 1e-300, top))
	case 3:
		cfg.Accuracy, _ = accuracy.NewScaled(accuracy.NewSqrtLoss(game.DefaultEpochs, game.DefaultA0), extreme(r, 1e-300, top))
	}
	return cfg
}

// TestValidatedConfigsSolveFinite: whatever Validate accepts, both solvers
// return a finite potential and finite payoffs — the gateway can encode the
// result.
func TestValidatedConfigsSolveFinite(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	accepted, solved := 0, map[string]int{}
	for k := 0; k < 20000; k++ {
		cfg := extremeConfig(r)
		if cfg.Validate() != nil {
			continue
		}
		accepted++
		check := func(solver string, p game.Profile, potential float64) {
			t.Helper()
			solved[solver]++
			vals := append(cfg.Payoffs(p), potential, cfg.Potential(p), cfg.SocialWelfare(p))
			for _, v := range vals {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("draw %d (%s): %s gives non-finite %v in %v\n%+v", k, cfg.Accuracy.Name(), solver, v, vals, cfg)
				}
			}
		}
		dres, err := dbr.Solve(cfg, nil, dbr.Options{MaxRounds: 8})
		if err != nil {
			continue // a start profile the deadline excludes
		}
		check("dbr", dres.Profile, dres.PotentialTrace[len(dres.PotentialTrace)-1])
		if cfg.Personal.Alpha > 0 {
			continue // CGBD does not take the personalization extension
		}
		gres, err := gbd.Solve(cfg, gbd.Options{MaxIter: 8})
		if err != nil {
			continue // no feasible grid point: an error, not a non-finite result
		}
		check("gbd", gres.Profile, gres.Potential)
	}
	t.Logf("%d of 20000 draws accepted; %d solved by dbr, %d by gbd", accepted, solved["dbr"], solved["gbd"])
	if solved["dbr"] < 200 || solved["gbd"] < 50 {
		t.Errorf("%d dbr and %d gbd solves; the property is barely exercised", solved["dbr"], solved["gbd"])
	}
}
