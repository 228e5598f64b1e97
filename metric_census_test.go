package tradefl_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestMetricCensus pins every tradefl_* series name the program registers
// to the reader that earns it a place. It reads the name literal of every
// obs.New{Counter,Gauge,Histogram,LabeledCounter} call in non-test Go, so a
// new series shows up here as a table diff that has to name its reader:
//   - "bench", "ci" or "summary": bench/*.go, scripts/ci.sh or the
//     tradefl-sim end-of-run summary reads the name (checked);
//   - "test:<TestName>": that test asserts the series' value (the test must
//     exist);
//   - otherwise the operator question the series answers.
func TestMetricCensus(t *testing.T) {
	readers := map[string]string{
		"tradefl_chain_blocks_sealed_total":              "bench",
		"tradefl_chain_budget_residual_wei":              "test:TestResidualNegativeCreditsFirstMember",
		"tradefl_chain_client_retries_total":             "test:TestRPCOversizedBodyClientNotRetried",
		"tradefl_chain_client_submit_dedups_total":       "test:TestSubmitTxRetrySafeUnderLostResponse",
		"tradefl_chain_height":                           "is the chain still sealing, and how far has it got?",
		"tradefl_chain_recover_seconds":                  "how long does a restart spend recovering?",
		"tradefl_chain_recover_snapshot_fallbacks_total": "test:TestRecoverFallsBackToOlderSnapshot",
		"tradefl_chain_replicated_records_total":         "is the standby applying the primary's WAL stream?",
		"tradefl_chain_rpc_body_too_large_total":         "are clients sending RPC bodies past the limit?",
		"tradefl_chain_rpc_errors_total":                 "what share of chain RPC requests fail?",
		"tradefl_chain_rpc_requests_total":               "how much RPC load is the chain serving?",
		"tradefl_chain_seal_seconds":                     "how long does sealing a block take?",
		"tradefl_chain_sig_verifications_total":          "test:TestWitnessCounterPinsSettlement",
		"tradefl_chain_snapshot_seconds":                 "how long does a checkpoint take?",
		"tradefl_chain_stale_term_rejects_total":         "is a fenced-off old primary still trying to seal?",
		"tradefl_chain_term":                             "which fencing term is this validator in?",
		"tradefl_chain_tx_submitted_total":               "how fast is the chain admitting transactions?",
		"tradefl_chain_wal_batch_records":                "bench",
		"tradefl_chain_wal_bytes_total":                  "bench",
		"tradefl_chain_wal_fsync_seconds":                "bench",
		"tradefl_chain_wal_fsyncs_total":                 "bench",
		"tradefl_dbr_best_responses_total":               "test:TestSolveCtxCancellation",
		"tradefl_dbr_candidates_total":                   "bench",
		"tradefl_dbr_certified_candidates_total":         "test:TestCertifiedCounter",
		"tradefl_dbr_converged_total":                    "summary",
		"tradefl_dbr_moves_total":                        "summary",
		"tradefl_dbr_rounds_total":                       "bench",
		"tradefl_dbr_runs_total":                         "bench",
		"tradefl_dbr_solve_seconds":                      "how long does a DBR solve take?",
		"tradefl_dbr_sweep_seconds":                      "how long does one best-response sweep take?",
		"tradefl_fl_rounds_total":                        "ci",
		"tradefl_fleet_errors_total":                     "how many instance solves fail?",
		"tradefl_fleet_instances_total":                  "summary",
		"tradefl_fleet_plan_dbr_total":                   "bench",
		"tradefl_fleet_plan_pruned_total":                "bench",
		"tradefl_fleet_plan_traversal_total":             "bench",
		"tradefl_fleet_solve_seconds":                    "bench",
		"tradefl_flight_events_total":                    "how fast are rare events filling the flight ring?",
		"tradefl_gbd_converged_total":                    "summary",
		"tradefl_gbd_exit_gap":                           "how close to epsilon do CGBD solves stop?",
		"tradefl_gbd_feasibility_cuts_total":             "summary",
		"tradefl_gbd_feasibility_seconds":                "how much CGBD time goes to feasibility checks?",
		"tradefl_gbd_iterations_per_solve":               "how many iterations does a CGBD solve need?",
		"tradefl_gbd_iterations_total":                   "bench",
		"tradefl_gbd_master_seconds":                     "bench",
		"tradefl_gbd_optimality_cuts_total":              "summary",
		"tradefl_gbd_primal_seconds":                     "bench",
		"tradefl_gbd_runs_total":                         "bench",
		"tradefl_gbd_solve_seconds":                      "bench",
		"tradefl_pool_fanouts_total":                     "summary",
		"tradefl_pool_worker_busy_seconds_total":         "bench",
		"tradefl_serve_body_too_large_total":             "test:TestGatewayBodyTooLarge",
		"tradefl_serve_drains_total":                     "has this gateway started draining?",
		"tradefl_serve_errors_total":                     "test:TestUnencodableReplyIs500",
		"tradefl_serve_instances_total":                  "bench",
		"tradefl_serve_job_seconds":                      "how long does a job take from admission to completion?",
		"tradefl_serve_jobs_active":                      "how many jobs are queued or running?",
		"tradefl_serve_jobs_cancelled_total":             "how many jobs were cancelled?",
		"tradefl_serve_jobs_created_total":               "how many jobs were admitted?",
		"tradefl_serve_jobs_done_total":                  "how many jobs solved every instance?",
		"tradefl_serve_jobs_failed_total":                "how many jobs hit an instance error?",
		"tradefl_serve_panics_total":                     "test:TestGatewayPanicRecovery",
		"tradefl_serve_queue_depth":                      "how many jobs wait in the queue?",
		"tradefl_serve_rejected_concurrency_total":       "bench",
		"tradefl_serve_rejected_draining_total":          "bench",
		"tradefl_serve_rejected_queue_total":             "bench",
		"tradefl_serve_rejected_rate_total":              "bench",
		"tradefl_serve_request_seconds":                  "test:TestRequestSecondsSkipStreams",
		"tradefl_serve_requests_total":                   "bench",
		"tradefl_serve_stream_clients":                   "test:TestStreamLastEventIDPastTheLog",
		"tradefl_serve_stream_events_total":              "bench",
		"tradefl_serve_sync_solves_total":                "how many requests take the synchronous solve path?",
		"tradefl_serve_tenants":                          "test:TestTenantTableIsSwept",
		"tradefl_trace_double_close_total":               "test:TestSpanDoubleCloseGuard",
		"tradefl_trace_roots_total":                      "which components fill the trace store?",
		"tradefl_trace_spans_ended_total":                "test:TestSpanDoubleCloseGuard",
		"tradefl_trace_spans_started_total":              "test:TestUnrecordedSpanIsFree",
		"tradefl_transport_frames_malformed_total":       "test:TestTCPTornWriteThenReconnect",
		"tradefl_transport_frames_overflow_total":        "test:TestTCPOversizedFrame",
		"tradefl_transport_inbox_dropped_total":          "is a TCP node dropping frames because its inbox is full?",
		"tradefl_verify_checks_total":                    "ci",
		"tradefl_verify_violations_total":                "ci",
	}
	sources := map[string]string{}
	for reader, pattern := range map[string]string{"bench": "bench/*.go", "ci": "scripts/ci.sh", "summary": "cmd/tradefl-sim/main.go"} {
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no files match %s (%v)", reader, pattern, err)
		}
		var src strings.Builder
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			raw, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			src.Write(raw)
		}
		sources[reader] = src.String()
	}
	testFunc := regexp.MustCompile(`(?m)^func (Test\w+)\(`)
	seen, tests := map[string]bool{}, map[string]bool{}
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
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		if strings.HasSuffix(path, "_test.go") {
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testFunc.FindAllSubmatch(raw, -1) {
				tests[string(m[1])] = true
			}
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
	for name, reader := range readers {
		if !seen[name] {
			t.Errorf("%s is pinned but no longer registered", name)
		}
		delete(seen, name)
		if src, ok := sources[reader]; ok {
			if !strings.Contains(src, name) {
				t.Errorf("%s: reader %q does not read it", name, reader)
			}
		} else if test, ok := strings.CutPrefix(reader, "test:"); ok {
			if !tests[test] {
				t.Errorf("%s: reader %q names no test", name, reader)
			}
		} else if !strings.HasSuffix(reader, "?") {
			t.Errorf("%s: reader %q is not bench, ci, summary, test:<TestName> or a question", name, reader)
		}
	}
	for name := range seen {
		t.Errorf("%s is registered but not pinned", name)
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
