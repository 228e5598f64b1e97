package fleet

import "tradefl/internal/obs"

// Fleet-engine telemetry (tradefl_fleet_*): batch throughput and planner
// decisions. Registered at init so the names are present (at zero) before
// the first batch.
var (
	mBatches   = obs.NewCounter("tradefl_fleet_batches_total", "batches submitted to the fleet engine")
	mInstances = obs.NewCounter("tradefl_fleet_instances_total", "game instances solved by the fleet engine")
	mErrors    = obs.NewCounter("tradefl_fleet_errors_total", "instances whose solve returned an error")
	mQueue     = obs.NewGauge("tradefl_fleet_queue_depth", "instances admitted to in-flight batches and not yet solved")
	mRate      = obs.NewGauge("tradefl_fleet_solves_per_sec", "throughput of the last completed batch (instances / wall second)")

	mPlanDBR       = obs.NewCounter("tradefl_fleet_plan_dbr_total", "instances the planner routed to distributed best response")
	mPlanPruned    = obs.NewCounter("tradefl_fleet_plan_pruned_total", "instances the planner routed to the pruned CGBD master")
	mPlanTraversal = obs.NewCounter("tradefl_fleet_plan_traversal_total", "instances the planner routed to the traversal CGBD master")

	mSolveSec = obs.NewHistogram("tradefl_fleet_solve_seconds", "wall time of one fleet-scheduled instance solve", obs.TimeBuckets)
	mBatchSec = obs.NewHistogram("tradefl_fleet_batch_seconds", "wall time of one fleet batch", obs.TimeBuckets)

	mAudits = obs.NewCounter("tradefl_fleet_audits_total", "batch outputs re-solved cold and compared by the sampled audit")
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
