package fl

import "tradefl/internal/obs"

// Telemetry of the federated-learning loop. Per-round quality lives in
// Result.History and the /runz trajectories; stragglers and degraded rounds
// are flight events.
var mRounds = obs.NewCounter("tradefl_fl_rounds_total", "federated rounds completed")

var flLog = obs.Component("fl")

// publishHistory mirrors a run's per-round history into the /runz
// trajectories.
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
