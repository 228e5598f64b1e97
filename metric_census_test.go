package tradefl_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestMetricCensus pins every tradefl_* series name the program registers,
// as TestOptionsCensus pins the option fields: it reads the name literal of
// every obs.New{Counter,Gauge,Histogram,LabeledCounter} call in non-test
// Go, so a new series shows up here as a table diff in review. A series
// earns its place when something reads it: a dashboard, the bench, a gate.
func TestMetricCensus(t *testing.T) {
	want := []string{
		"tradefl_cache_cut_tables_incremental_total", "tradefl_cache_engine_hits_total",
		"tradefl_cache_engine_misses_total", "tradefl_cache_master_seeds_total",
		"tradefl_cache_master_warm_starts_total",
		"tradefl_chain_batch_submits_total", "tradefl_chain_batch_txs_total",
		"tradefl_chain_blocks_sealed_total", "tradefl_chain_budget_residual_wei",
		"tradefl_chain_client_call_seconds", "tradefl_chain_client_giveups_total",
		"tradefl_chain_client_retries_total", "tradefl_chain_client_submit_dedups_total",
		"tradefl_chain_dedup_evicted_total", "tradefl_chain_failovers_total", "tradefl_chain_height",
		"tradefl_chain_payoff_transfer_wei_total", "tradefl_chain_payoff_transfers_total",
		"tradefl_chain_recover_seconds", "tradefl_chain_recover_snapshot_fallbacks_total",
		"tradefl_chain_recover_wal_records_total", "tradefl_chain_replicated_records_total",
		"tradefl_chain_rpc_body_too_large_total", "tradefl_chain_rpc_errors_total",
		"tradefl_chain_rpc_requests_total", "tradefl_chain_seal_seconds",
		"tradefl_chain_sig_verifications_total", "tradefl_chain_snapshot_seconds",
		"tradefl_chain_snapshots_total", "tradefl_chain_stale_term_rejects_total", "tradefl_chain_term",
		"tradefl_chain_tx_deduped_total", "tradefl_chain_tx_failed_total",
		"tradefl_chain_tx_mined_total", "tradefl_chain_tx_submitted_total",
		"tradefl_chain_wal_batch_records", "tradefl_chain_wal_bytes_total",
		"tradefl_chain_wal_fsync_seconds", "tradefl_chain_wal_fsyncs_total",
		"tradefl_chain_wal_records_total", "tradefl_chain_wal_rotations_total",
		"tradefl_chain_wal_torn_bytes_total",
		"tradefl_dbr_best_responses_total", "tradefl_dbr_candidates_total",
		"tradefl_dbr_certified_candidates_total", "tradefl_dbr_converged_total",
		"tradefl_dbr_duplicate_tokens_total", "tradefl_dbr_moves_total", "tradefl_dbr_potential",
		"tradefl_dbr_rounds_total", "tradefl_dbr_runs_total", "tradefl_dbr_skipped_peers_total",
		"tradefl_dbr_social_welfare", "tradefl_dbr_solve_seconds", "tradefl_dbr_sweep_seconds",
		"tradefl_dbr_token_resends_total",
		"tradefl_faults_crash_rejects_total", "tradefl_faults_delayed_total",
		"tradefl_faults_dropped_total", "tradefl_faults_duplicated_total",
		"tradefl_faults_partition_rejects_total", "tradefl_faults_rpc_delayed_total",
		"tradefl_faults_rpc_failures_total", "tradefl_faults_rpc_lost_total",
		"tradefl_fl_degraded_rounds_total", "tradefl_fl_local_updates_total",
		"tradefl_fl_round_accuracy", "tradefl_fl_round_arrival_ratio", "tradefl_fl_round_loss",
		"tradefl_fl_round_seconds", "tradefl_fl_rounds_total", "tradefl_fl_runs_total",
		"tradefl_fl_stragglers_total",
		"tradefl_fleet_audits_total", "tradefl_fleet_batch_seconds", "tradefl_fleet_batches_total",
		"tradefl_fleet_errors_total", "tradefl_fleet_instances_total", "tradefl_fleet_plan_dbr_total",
		"tradefl_fleet_plan_pruned_total", "tradefl_fleet_plan_traversal_total",
		"tradefl_fleet_queue_depth", "tradefl_fleet_solve_seconds", "tradefl_fleet_solves_per_sec",
		"tradefl_flight_events_total",
		"tradefl_game_nash_checks_total", "tradefl_game_nash_max_regret",
		"tradefl_game_nash_violations_total",
		"tradefl_gbd_bound_gap", "tradefl_gbd_converged_total", "tradefl_gbd_exit_gap",
		"tradefl_gbd_feasibility_cuts_total", "tradefl_gbd_feasibility_seconds",
		"tradefl_gbd_iterations_per_solve", "tradefl_gbd_iterations_total", "tradefl_gbd_master_seconds",
		"tradefl_gbd_optimality_cuts_total", "tradefl_gbd_potential", "tradefl_gbd_primal_seconds",
		"tradefl_gbd_runs_total", "tradefl_gbd_social_welfare", "tradefl_gbd_solve_seconds",
		"tradefl_gbd_welfare_per_solve",
		"tradefl_pool_fanout_seconds", "tradefl_pool_fanouts_total", "tradefl_pool_queue_depth",
		"tradefl_pool_tasks_total", "tradefl_pool_worker_busy_seconds_total",
		"tradefl_pool_workers_active",
		"tradefl_serve_body_too_large_total", "tradefl_serve_drains_total", "tradefl_serve_errors_total",
		"tradefl_serve_instances_total", "tradefl_serve_job_seconds", "tradefl_serve_jobs_active",
		"tradefl_serve_jobs_cancelled_total", "tradefl_serve_jobs_created_total",
		"tradefl_serve_jobs_done_total", "tradefl_serve_jobs_failed_total", "tradefl_serve_panics_total",
		"tradefl_serve_queue_depth", "tradefl_serve_rejected_concurrency_total",
		"tradefl_serve_rejected_draining_total", "tradefl_serve_rejected_queue_total",
		"tradefl_serve_rejected_rate_total", "tradefl_serve_request_seconds",
		"tradefl_serve_requests_total", "tradefl_serve_stream_clients",
		"tradefl_serve_stream_events_total", "tradefl_serve_sync_solves_total", "tradefl_serve_tenants",
		"tradefl_trace_double_close_total", "tradefl_trace_roots_total",
		"tradefl_trace_spans_ended_total", "tradefl_trace_spans_started_total",
		"tradefl_transport_frames_malformed_total", "tradefl_transport_frames_overflow_total",
		"tradefl_transport_hub_dropped_total", "tradefl_transport_inbox_dropped_total",
		"tradefl_transport_send_failures_total", "tradefl_transport_send_retries_total",
		"tradefl_verify_bound_violations_total", "tradefl_verify_checks_total",
		"tradefl_verify_evaluator_violations_total", "tradefl_verify_ledger_violations_total",
		"tradefl_verify_nash_violations_total", "tradefl_verify_potential_violations_total",
		"tradefl_verify_settlement_violations_total", "tradefl_verify_transfer_violations_total",
		"tradefl_verify_violations_total", "tradefl_verify_worst_delta",
	}
	seen := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isMetricConstructor(f.Name.Name, call.Fun) || len(call.Args) == 0 {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Errorf("%s: metric name is not a string literal", path)
				return true
			}
			if name, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(name, "tradefl_") {
				seen[name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("%s is pinned but no longer registered", name)
		}
		delete(seen, name)
	}
	for name := range seen {
		t.Errorf("%s is registered but not pinned", name)
	}
	if !sort.StringsAreSorted(want) {
		t.Error("keep the pinned series sorted")
	}
}

// isMetricConstructor reports whether fun names one of obs's metric
// constructors: obs.NewX from another package, NewX inside obs itself.
func isMetricConstructor(pkg string, fun ast.Expr) bool {
	var name string
	switch f := fun.(type) {
	case *ast.SelectorExpr:
		if x, ok := f.X.(*ast.Ident); !ok || x.Name != "obs" {
			return false
		}
		name = f.Sel.Name
	case *ast.Ident:
		if pkg != "obs" {
			return false
		}
		name = f.Name
	default:
		return false
	}
	switch name {
	case "NewCounter", "NewGauge", "NewHistogram", "NewLabeledCounter":
		return true
	}
	return false
}
