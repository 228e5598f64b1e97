package gbd

import "tradefl/internal/obs"

// Telemetry of Algorithm 1. Registered at init so the metric names are
// present (at zero) in /metrics even before the first solver run; every
// update on the solve path is a single atomic operation.
var (
	mRuns       = obs.NewCounter("tradefl_gbd_runs_total", "CGBD solver runs started")
	mIterations = obs.NewCounter("tradefl_gbd_iterations_total", "CGBD iterations completed across all runs")
	mOptCuts    = obs.NewCounter("tradefl_gbd_optimality_cuts_total", "optimality cuts added to the master problem")
	mFeasCuts   = obs.NewCounter("tradefl_gbd_feasibility_cuts_total", "feasibility cuts added to the master problem")
	mConverged  = obs.NewCounter("tradefl_gbd_converged_total", "CGBD runs that reached UB-LB <= epsilon")
	mPrimalSec  = obs.NewHistogram("tradefl_gbd_primal_seconds", "wall time of primal problem (19) solves", obs.TimeBuckets)
	mMasterSec  = obs.NewHistogram("tradefl_gbd_master_seconds", "wall time of master problem (23) solves", obs.TimeBuckets)
	mFeasSec    = obs.NewHistogram("tradefl_gbd_feasibility_seconds", "wall time of feasibility-check problem (21) solves", obs.TimeBuckets)
	mSolveSec   = obs.NewHistogram("tradefl_gbd_solve_seconds", "end-to-end wall time of CGBD runs", obs.TimeBuckets)

	// Convergence distributions across solves: the fleet-wide view of the
	// paper's bound-sandwich guarantee (exit gap, iterations to converge).
	// Per-solve values live in Result.
	mGapHist = obs.NewHistogram("tradefl_gbd_exit_gap", "distribution of UB-LB at CGBD exit",
		obs.ExpBuckets(1e-9, 10, 14))
	mItersHist = obs.NewHistogram("tradefl_gbd_iterations_per_solve", "distribution of CGBD iterations per solve",
		[]float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64})
)
