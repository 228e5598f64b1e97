package verify

import "tradefl/internal/obs"

// Verification metrics (tradefl_verify_*). Counters split violations by
// invariant family so a dashboard can tell a solver regression from a
// settlement one; the worst-delta gauge carries the magnitude of the most
// recent worst breach for alerting thresholds.
var (
	mChecks     = obs.NewCounter("tradefl_verify_checks_total", "invariant checks executed")
	mViolations = obs.NewCounter("tradefl_verify_violations_total", "invariant violations detected (all families)")

	mPotentialViol  = obs.NewCounter("tradefl_verify_potential_violations_total", "potential-monotonicity violations along best-response or CGBD incumbent paths")
	mTransferViol   = obs.NewCounter("tradefl_verify_transfer_violations_total", "transfer antisymmetry or budget-balance violations (Definition 5)")
	mBoundViol      = obs.NewCounter("tradefl_verify_bound_violations_total", "CGBD bound-sandwich violations (LB/UB monotonicity, inversion, gap)")
	mNashViol       = obs.NewCounter("tradefl_verify_nash_violations_total", "no-profitable-deviation audit failures")
	mSettlementViol = obs.NewCounter("tradefl_verify_settlement_violations_total", "on-chain settlement cross-check failures (wei budget, payoff mismatch)")
	mLedgerViol     = obs.NewCounter("tradefl_verify_ledger_violations_total", "ledger conservation failures (wei leak, nonce regression)")
	mEvaluatorViol  = obs.NewCounter("tradefl_verify_evaluator_violations_total", "incremental-vs-direct evaluator equivalence failures")

	mWorstDelta = obs.NewGauge("tradefl_verify_worst_delta", "magnitude of the worst invariant breach observed so far (0 when clean)")
)
