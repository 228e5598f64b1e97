package verify

import "tradefl/internal/obs"

// Verification metrics (tradefl_verify_*): how many invariant checks ran
// and how many broke. Each Violation carries its family in Check and its
// magnitude in Delta (Auditor.Violations).
var (
	mChecks     = obs.NewCounter("tradefl_verify_checks_total", "invariant checks executed")
	mViolations = obs.NewCounter("tradefl_verify_violations_total", "invariant violations detected (all families)")
)
