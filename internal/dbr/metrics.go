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
	mPotential  = obs.NewGauge("tradefl_dbr_potential", "potential U at the profile of the last DBR run")
	mWelfare    = obs.NewGauge("tradefl_dbr_social_welfare", "social welfare at the profile of the last DBR run")
	mSweepSec   = obs.NewHistogram("tradefl_dbr_sweep_seconds", "wall time of one best-response sweep over all organizations", obs.TimeBuckets)
	mSolveSec   = obs.NewHistogram("tradefl_dbr_solve_seconds", "end-to-end wall time of DBR runs", obs.TimeBuckets)
)

// Incremental-engine cache telemetry: pooled-engine reuse. A hit reuses a
// pooled engine's allocations (evaluator arrays, candidate scratch); the
// evaluator's static caches are still re-derived from the config on every
// acquire, because the config may have been mutated in place between
// solves.
var (
	mEngineHits   = obs.NewCounter("tradefl_cache_engine_hits_total", "pooled best-response engines reused (allocations recycled, caches re-derived)")
	mEngineMisses = obs.NewCounter("tradefl_cache_engine_misses_total", "best-response engines built fresh (empty pool)")
)

var dbrLog = obs.Component("dbr")

// Ring fault-recovery telemetry: how often the token had to be re-sent to
// the same peer (suspected message loss) versus forwarded past a peer
// (suspected crash).
var (
	mResends = obs.NewCounter("tradefl_dbr_token_resends_total", "token resends to the same peer after a token timeout")
	mSkips   = obs.NewCounter("tradefl_dbr_skipped_peers_total", "ring positions skipped as unreachable or crash-suspected")
	mDupes   = obs.NewCounter("tradefl_dbr_duplicate_tokens_total", "received tokens discarded by sequence-number deduplication")
)
