package fl

import "tradefl/internal/obs"

// Telemetry of the federated-learning loop. Per-round quality lives in
// Result.History.
var mRounds = obs.NewCounter("tradefl_fl_rounds_total", "federated rounds completed")
