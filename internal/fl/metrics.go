package fl

import "tradefl/internal/obs"

// Telemetry of the federated-learning loop: per-round quality and wall
// time.
var (
	mRuns     = obs.NewCounter("tradefl_fl_runs_total", "federated training runs started")
	mRounds   = obs.NewCounter("tradefl_fl_rounds_total", "federated rounds completed")
	mUpdates  = obs.NewCounter("tradefl_fl_local_updates_total", "local organization updates aggregated into the global model")
	mAccuracy = obs.NewGauge("tradefl_fl_round_accuracy", "global-model test accuracy after the most recent round")
	mLoss     = obs.NewGauge("tradefl_fl_round_loss", "global-model test loss after the most recent round")
	mRoundSec = obs.NewHistogram("tradefl_fl_round_seconds", "wall time of one federated round incl. evaluation", obs.TimeBuckets)
)

var flLog = obs.Component("fl")

// Straggler-model telemetry: late updates, rounds that lost every update,
// and the most recent arrival ratio.
var (
	mStragglers     = obs.NewCounter("tradefl_fl_stragglers_total", "local updates excluded for missing the round deadline")
	mDegradedRounds = obs.NewCounter("tradefl_fl_degraded_rounds_total", "rounds in which no update met the deadline and the previous global model was kept")
	mArrivalRatio   = obs.NewGauge("tradefl_fl_round_arrival_ratio", "fraction of contributing organizations whose update met the most recent round's deadline")
)

// publishHistory mirrors a run's per-round history into the round gauges
// and the /runz trajectories.
func publishHistory(history []RoundMetrics) {
	if len(history) == 0 {
		return
	}
	accs := make([]float64, len(history))
	losses := make([]float64, len(history))
	for i, h := range history {
		accs[i] = h.Accuracy
		losses[i] = h.Loss
	}
	obs.RecordTrajectories(
		obs.Trajectory{Name: "fl.accuracy", Values: accs},
		obs.Trajectory{Name: "fl.loss", Values: losses},
	)
}
