package serve

import "tradefl/internal/obs"

// Gateway telemetry, exposed on the shared -diag-addr registry alongside
// the solver and chain metrics: request flow at the edge, admission-control
// verdicts, job lifecycle, and streaming activity.
var (
	mRequests   = obs.NewCounter("tradefl_serve_requests_total", "HTTP requests received by the gateway")
	mErrors     = obs.NewCounter("tradefl_serve_errors_total", "HTTP requests answered with a 4xx/5xx status")
	mPanics     = obs.NewCounter("tradefl_serve_panics_total", "handler panics recovered into 500 responses (each one dumps the flight recorder)")
	mTooLarge   = obs.NewCounter("tradefl_serve_body_too_large_total", "requests rejected with 413 because the body exceeded the limit")
	mRequestSec = obs.NewHistogram("tradefl_serve_request_seconds", "wall time of one gateway request (excl. SSE streams)", obs.TimeBuckets)

	// Admission-control verdicts, one counter per rejection reason so a
	// dashboard can tell a saturated queue from a greedy tenant.
	mRejectQueue       = obs.NewCounter("tradefl_serve_rejected_queue_total", "job submissions rejected with 429 because the global queue was full")
	mRejectConcurrency = obs.NewCounter("tradefl_serve_rejected_concurrency_total", "job submissions rejected with 429 because the tenant hit its active-job quota")
	mRejectRate        = obs.NewCounter("tradefl_serve_rejected_rate_total", "submissions rejected with 429 because the tenant's instance-token bucket ran dry")
	mRejectDraining    = obs.NewCounter("tradefl_serve_rejected_draining_total", "submissions rejected with 503 because the gateway was draining")

	mJobsCreated   = obs.NewCounter("tradefl_serve_jobs_created_total", "jobs admitted into the queue")
	mJobsDone      = obs.NewCounter("tradefl_serve_jobs_done_total", "jobs that finished with every instance solved")
	mJobsFailed    = obs.NewCounter("tradefl_serve_jobs_failed_total", "jobs that finished with at least one instance error")
	mJobsCancelled = obs.NewCounter("tradefl_serve_jobs_cancelled_total", "jobs cancelled before or during their run")
	mJobsActive    = obs.NewGauge("tradefl_serve_jobs_active", "jobs currently queued or running")
	mQueueDepth    = obs.NewGauge("tradefl_serve_queue_depth", "jobs waiting in the bounded queue")
	mTenants       = obs.NewGauge("tradefl_serve_tenants", "tenants in the admission table (idle ones are swept out as it grows)")
	mInstances     = obs.NewCounter("tradefl_serve_instances_total", "game instances solved through the gateway (async jobs + sync solves)")
	mJobSec        = obs.NewHistogram("tradefl_serve_job_seconds", "wall time of one job from admission to completion", obs.TimeBuckets)
	mSyncSolves    = obs.NewCounter("tradefl_serve_sync_solves_total", "synchronous /v1/solve requests served")

	mStreamClients = obs.NewGauge("tradefl_serve_stream_clients", "SSE progress streams currently open")
	mStreamEvents  = obs.NewCounter("tradefl_serve_stream_events_total", "SSE events written across all progress streams")

	mDrains = obs.NewCounter("tradefl_serve_drains_total", "graceful drains initiated (SIGINT/SIGTERM or Drain call)")
)
