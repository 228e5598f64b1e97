package fleet

import "tradefl/internal/obs"

// Fleet-engine telemetry (tradefl_fleet_*): instance flow and planner
// decisions. Registered at init so the names are present (at zero) before
// the first batch.
var (
	mInstances = obs.NewCounter("tradefl_fleet_instances_total", "game instances solved by the fleet engine")
	mErrors    = obs.NewCounter("tradefl_fleet_errors_total", "instances whose solve returned an error")

	mPlanDBR       = obs.NewCounter("tradefl_fleet_plan_dbr_total", "instances the planner routed to distributed best response")
	mPlanPruned    = obs.NewCounter("tradefl_fleet_plan_pruned_total", "instances the planner routed to the pruned CGBD master")
	mPlanTraversal = obs.NewCounter("tradefl_fleet_plan_traversal_total", "instances the planner routed to the traversal CGBD master")

	mSolveSec = obs.NewHistogram("tradefl_fleet_solve_seconds", "wall time of one fleet-scheduled instance solve", obs.TimeBuckets)
)

// planCounter maps a concrete plan to its decision counter.
func planCounter(p Plan) *obs.Counter {
	switch p {
	case PlanPruned:
		return mPlanPruned
	case PlanTraversal:
		return mPlanTraversal
	default:
		return mPlanDBR
	}
}
