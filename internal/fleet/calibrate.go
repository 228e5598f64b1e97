package fleet

import (
	"fmt"
	"math"
	"time"

	"tradefl/internal/dbr"
	"tradefl/internal/game"
	"tradefl/internal/gbd"
	"tradefl/internal/obs"
)

// CalibrateOptions bounds the self-calibration micro-benchmark.
type CalibrateOptions struct {
	// Seeds are the instance seeds per size (default 1, 2).
	Seeds []int64
	// Ns are the organization counts of the calibration corpus (default
	// 4, 6, 8, 10, 12).
	Ns []int
	// CPUSteps is the per-organization grid width (default 3).
	CPUSteps int
}

func (o CalibrateOptions) withDefaults() CalibrateOptions {
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1, 2}
	}
	if len(o.Ns) == 0 {
		// Spans the pruned/DBR crossover region.
		o.Ns = []int{4, 6, 8, 10, 12}
	}
	if o.CPUSteps == 0 {
		o.CPUSteps = 3
	}
	return o
}

// unitClamp bounds how far calibration may move a coefficient from the
// built-in default, so one noisy measurement (GC pause, CPU throttle)
// cannot produce a profile that misroutes whole batches.
const unitClamp = 16

// Calibrate runs a small solver micro-benchmark and fits the cost-model
// scale coefficients to this host. The per-solve timings are read from the
// recorded obs wall-time histograms (tradefl_gbd_solve_seconds,
// tradefl_dbr_solve_seconds) — the same per-phase telemetry a long-running
// process accumulates — so the calibration path and production telemetry
// cannot drift apart. Each instance is solved twice and only the second,
// warmed solve is measured. The fit keeps the built-in base terms and
// refits the unit coefficients by least squares through the origin over
// the corpus, clamped to a factor of unitClamp around the defaults.
//
// The obs registry is process-global: calibrate on a quiet process, or the
// histogram deltas include concurrent solves.
func Calibrate(opts CalibrateOptions) (*CostProfile, error) {
	opts = opts.withDefaults()
	prof := DefaultProfile()
	start := time.Now()

	corpus := make([]*game.Config, 0, len(opts.Ns)*len(opts.Seeds))
	for _, n := range opts.Ns {
		for _, seed := range opts.Seeds {
			cfg, err := game.DefaultConfig(game.GenOptions{
				N: n, Seed: seed, CPUSteps: opts.CPUSteps, NoOrgName: true,
			})
			if err != nil {
				return nil, fmt.Errorf("fleet: calibrate: corpus N=%d seed=%d: %w", n, seed, err)
			}
			corpus = append(corpus, cfg)
		}
	}

	// Least squares through the origin on (work factor, measured − base):
	// unit = Σ f·t / Σ f². Large instances carry more weight, which is
	// exactly where a wrong crossover costs real wall time; a geometric
	// mean would let the microsecond-scale instances drown them out.
	fit := func(plan Plan, base float64) (float64, error) {
		num, den := 0.0, 0.0
		for _, cfg := range corpus {
			st := StatsOf(cfg, 0)
			factor := unitFactor(plan, st)
			if factor <= 0 {
				continue
			}
			ns, err := measure(plan, cfg)
			if err != nil {
				return 0, err
			}
			if t := ns - base; t > 0 {
				num += factor * t
				den += factor * factor
			}
		}
		if den == 0 {
			return 0, fmt.Errorf("fleet: calibrate: no usable %s timing samples", plan)
		}
		return num / den, nil
	}

	// prof still holds the defaults: each unit is read as the clamp centre
	// and then overwritten with its fit.
	for _, m := range []struct {
		plan Plan
		base float64
		unit *float64
	}{
		{PlanDBR, prof.DBRBase, &prof.DBRUnit},
		{PlanPruned, prof.PrunedBase, &prof.PrunedUnit},
	} {
		unit, err := fit(m.plan, m.base)
		if err != nil {
			return nil, err
		}
		def := *m.unit
		*m.unit = math.Min(def*unitClamp, math.Max(def/unitClamp, unit))
	}
	prof.CalibratedNs = float64(time.Since(start).Nanoseconds())
	mCalibrateNs.Set(prof.CalibratedNs)
	if err := prof.valid(); err != nil {
		return nil, err
	}
	return prof, nil
}

// unitFactor is the structural term the unit coefficient multiplies in the
// cost model — the per-plan "work size" of the instance.
func unitFactor(p Plan, st Stats) float64 {
	switch p {
	case PlanDBR:
		return math.Pow(float64(st.N), 1.5) * st.MeanLevels
	case PlanPruned:
		return math.Pow(st.Grid, 0.4) * epsFactor(st.Epsilon)
	}
	return 0
}

// measure solves cfg twice with the given plan (serial) and returns the
// second solve's wall time in nanoseconds, read from the obs solve-time
// histogram delta.
func measure(plan Plan, cfg *game.Config) (float64, error) {
	solve := func() error {
		if plan == PlanDBR {
			_, err := dbr.Solve(cfg, nil, dbr.Options{})
			return err
		}
		_, err := gbd.Solve(cfg, gbd.Options{Master: gbd.MasterPruned, Workers: 1})
		return err
	}
	hist := "tradefl_gbd_solve_seconds"
	if plan == PlanDBR {
		hist = "tradefl_dbr_solve_seconds"
	}
	if err := solve(); err != nil { // warm-up: exclude first-touch allocations
		return 0, fmt.Errorf("fleet: calibrate: %s solve: %w", plan, err)
	}
	before := histSumNs(hist)
	if err := solve(); err != nil {
		return 0, fmt.Errorf("fleet: calibrate: %s solve: %w", plan, err)
	}
	return histSumNs(hist) - before, nil
}

// histSumNs reads the cumulative sum of an obs wall-time histogram in
// nanoseconds.
func histSumNs(name string) float64 {
	if s, ok := obs.Find(obs.Default.Snapshot(), name); ok {
		return s.Sum * 1e9
	}
	return 0
}
