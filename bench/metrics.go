package main

// metricDef declares one reported metric. BENCHMARK.json at the repository
// root lists the same names, units and bounds; TestBenchmarkJSONMatches
// keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, as a share
}

// endToEnd is what a user of the system sees, by the same names on every
// workload. One op is a request (edge_sync), a solved instance (jobs_*) or
// a settlement (settle_rpc).
var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s", "higher", 0.20},
	{"latency_p50_ms", "ms", "lower", 0.20},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer attributes the end-to-end numbers to layers. A layer a workload
// bypasses (and a series the program stopped exporting) reports 0.
var perLayer = []metricDef{
	{Name: "e2e.fail_share", Unit: "share", Better: "lower"},

	{Name: "serve.parse_us_per_req", Unit: "us", Better: "lower"},
	{Name: "serve.self_us_per_req", Unit: "us", Better: "lower"},
	{Name: "serve.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.service_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.stream_lag_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.stream_events_per_instance", Unit: "count", Better: "lower"},
	{Name: "serve.resp_bytes_per_instance", Unit: "bytes", Better: "lower"},
	{Name: "serve.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "serve.rss_kb_per_instance", Unit: "kB", Better: "lower"},
	{Name: "serve.rejected_share", Unit: "share", Better: "lower"},

	{Name: "fleet.plan_us_per_instance", Unit: "us", Better: "lower"},
	{Name: "fleet.self_us_per_instance", Unit: "us", Better: "lower"},
	{Name: "fleet.cpu_share", Unit: "share", Better: "higher"},
	{Name: "fleet.plan_share_pruned", Unit: "share", Better: "higher"},
	{Name: "fleet.plan_share_dbr", Unit: "share", Better: "higher"},
	{Name: "fleet.warm_hit_share", Unit: "share", Better: "higher"},
	{Name: "fleet.auto_regret_pct", Unit: "%", Better: "lower"},

	{Name: "gbd.solve_us_per_instance", Unit: "us", Better: "lower"},
	{Name: "gbd.master_share", Unit: "share", Better: "lower"},
	{Name: "gbd.primal_share", Unit: "share", Better: "lower"},
	{Name: "gbd.iterations_per_solve", Unit: "count", Better: "lower"},
	{Name: "gbd.primal_memo_hit_share", Unit: "share", Better: "higher"},

	{Name: "dbr.solve_us_per_instance", Unit: "us", Better: "lower"},
	{Name: "dbr.rounds_per_solve", Unit: "count", Better: "lower"},
	{Name: "dbr.candidates_per_solve", Unit: "count", Better: "lower"},
	{Name: "game.eval_us_per_instance", Unit: "us", Better: "lower"},
	{Name: "game.gen_us_per_instance", Unit: "us", Better: "lower"},
	{Name: "parallel.worker_busy_share", Unit: "share", Better: "higher"},

	{Name: "chain.open_ms", Unit: "ms", Better: "lower"},
	{Name: "chain.submit_us_per_tx", Unit: "us", Better: "lower"},
	{Name: "chain.seal_ms_per_block", Unit: "ms", Better: "lower"},
	{Name: "chain.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "chain.close_ms", Unit: "ms", Better: "lower"},
	{Name: "chain.rpc_self_ms_per_settle", Unit: "ms", Better: "lower"},
	{Name: "chain.sign_us_per_tx", Unit: "us", Better: "lower"},
	{Name: "chain.exec_waves_per_block", Unit: "count", Better: "lower"},
	{Name: "chain.exec_groups_per_block", Unit: "count", Better: "higher"},
	{Name: "chain.read_us_p50", Unit: "us", Better: "lower"},
	{Name: "chain.read_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "chain.read_late_ms_max", Unit: "ms", Better: "lower"},

	{Name: "durable.fsyncs_per_settle", Unit: "count", Better: "lower"},
	{Name: "durable.wal_bytes_per_tx", Unit: "bytes", Better: "lower"},
	{Name: "durable.fsync_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "durable.batch_records_mean", Unit: "count", Better: "higher"},

	{Name: "core.run_solve_ms", Unit: "ms", Better: "lower"},
	{Name: "core.run_settle_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill renders values for exactly the declared metrics, 0 for the ones the
// workload did not produce.
func fill(defs []metricDef, values map[string]float64, into map[string]metricValue) {
	for _, d := range defs {
		into[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
}
