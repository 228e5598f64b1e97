package dbr

import "tradefl/internal/obs"

// Telemetry of Algorithm 2. Counters sit outside the golden-section inner
// loop — one atomic per best-response scan or sweep — so instrumentation
// stays invisible next to the payoff evaluations each scan performs.
var (
	mRuns       = obs.NewCounter("tradefl_dbr_runs_total", "DBR solver runs started")
	mRounds     = obs.NewCounter("tradefl_dbr_rounds_total", "best-response sweeps completed across all runs")
	mMoves      = obs.NewCounter("tradefl_dbr_moves_total", "strategy updates applied (payoff improved beyond Tol)")
	mScans      = obs.NewCounter("tradefl_dbr_best_responses_total", "best-response scans computed")
	mCandidates = obs.NewCounter("tradefl_dbr_candidates_total", "per-CPU-level best-response candidates solved")
	mCertified  = obs.NewCounter("tradefl_dbr_certified_candidates_total", "candidates answered by the endpoint certificate instead of a golden-section search")
	mConverged  = obs.NewCounter("tradefl_dbr_converged_total", "DBR runs that reached a fixed point before MaxRounds")
	mSweepSec   = obs.NewHistogram("tradefl_dbr_sweep_seconds", "wall time of one best-response sweep over all organizations", obs.TimeBuckets)
	mSolveSec   = obs.NewHistogram("tradefl_dbr_solve_seconds", "end-to-end wall time of DBR runs", obs.TimeBuckets)
)

var dbrLog = obs.Component("dbr")
