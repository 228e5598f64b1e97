package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one set of inputs the benchmark runs. Why is recorded in
// BENCHMARK.json: which layer the workload isolates and which it bypasses.
type workload struct {
	Name string
	Why  string
	// tail is the percentile latency_tail_ms reports when the sample
	// supports it (see supportedTail).
	tail float64
	// jobOrgs is the N cycle of a jobs_* workload.
	jobOrgs []int
	// kernel is the calibration kernel whose nature the workload shares:
	// exchange for closed-loop request/response, compute for batches that
	// keep every CPU solving (see calib.go).
	kernel kernel

	measure func(ctx context.Context, e *env, w *workload, in *inputs) (*outcome, error)
	traced  func(ctx context.Context, e *env, w *workload, in *inputs, rec *recorder, layers map[string]float64) error
}

var workloads = []*workload{
	{
		Name:    "edge_sync",
		Why:     "POST /v1/solve, one explicit N in {4,5,6} game per request: the solve is ~10% of the round trip, so serve/httpx JSON, validation, admission and encoding dominate; bypasses queue, SSE and dbr",
		tail:    99,
		kernel:  kernelExchange,
		measure: measureEdgeSync, traced: tracedEdgeSync,
	},
	{
		Name:    "jobs_small_n",
		Why:     "async jobs of 64 generated N in {6,8,10} games followed over SSE: the planner picks CGBD, so fleet planning and gbd master/primal carry the solving; bypasses dbr",
		tail:    95,
		jobOrgs: []int{6, 8, 10},
		kernel:  kernelCompute,
		measure: measureJobs, traced: tracedJobs,
	},
	{
		Name:    "jobs_large_n",
		Why:     "the same jobs with N in {24,32,40}: the planner picks DBR, so best-response scans and game delta evaluation dominate; bypasses gbd, on the other side of the planner's crossover",
		tail:    95,
		jobOrgs: []int{24, 32, 40},
		kernel:  kernelCompute,
		measure: measureJobs, traced: tracedJobs,
	},
	{
		Name:    "settle_rpc",
		Why:     "closed-loop settlements of a solved N=32 game (129 txs, 4 blocks) over JSON-RPC on fresh WAL-backed chains, beside 200 paced reads/s: chain and durable do the work; bypasses gateway and solvers",
		tail:    95,
		kernel:  kernelExchange,
		measure: measureSettle, traced: tracedSettle,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// env is the run's fixed surroundings.
type env struct {
	root    string        // module root, where cmd/tradefl-server builds from
	out     string        // bench/out: traces survive a run here
	tmp     string        // bench/out/run-<pid>: binaries and WALs, removed on exit
	seed    int64         // --seed
	window  time.Duration // --seconds
	warmup  time.Duration
	clients int // client goroutines = connections = nproc
	cal     *calibrator
}

// hostSpeed measures the host's current speed with kernel k (the speed
// argument of runLoad).
func (e *env) hostSpeed(k kernel) func(time.Duration) (float64, error) {
	return func(d time.Duration) (float64, error) { return e.cal.speed(k, d) }
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

// inputs is what set-up produces for one workload.
type inputs struct {
	serverBin  string
	syncBodies [][]byte
	settle     *settlePlan
}

// syncPool is the number of distinct edge_sync request bodies.
const syncPool = 256

// setUp builds the server binary and the workload's seeded inputs — the
// work setup_s times. The binary is rebuilt (relinked) every time so the
// repeats of one run time the same work.
func setUp(ctx context.Context, e *env, w *workload) (*inputs, error) {
	in := &inputs{}
	var err error
	_ = os.Remove(filepath.Join(e.tmp, "tradefl-server")) // absent on the first repeat
	if in.serverBin, err = buildServer(ctx, e.root, e.tmp); err != nil {
		return nil, err
	}
	switch w.Name {
	case "edge_sync":
		in.syncBodies, err = syncBodies(e.seed, syncPool)
	case "settle_rpc":
		in.settle, err = buildSettlePlan(e.seed)
	}
	return in, err
}

// outcome is what one measured window produced.
type outcome struct {
	load      loadResult
	checked   int     // outputs compared against a reference
	checkErrs []error // outputs that were wrong (and a server that did not drain)
	layers    map[string]float64
	missing   []string // scraped series the program no longer exports
}

// serverRun is a measured window against a fresh server child.
type serverRun struct {
	load                 loadResult
	win                  *window
	hwmStartKB, hwmEndKB float64
	stopErr              error
}

// gatewayOp is opFunc with the client's own connection.
type gatewayOp func(cl *apiClient, client, k int, measured bool) (time.Duration, int, error)

// runAgainstServer starts a fresh server, measures op in a closed loop of
// e.clients clients, reads /metrics and the child's memory at both ends of
// the window, then drains the server.
func runAgainstServer(ctx context.Context, e *env, w *workload, bin string, op gatewayOp) (*serverRun, error) {
	srv, err := startServer(bin)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.kill()
		}
	}()
	pid := srv.cmd.Process.Pid

	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	watchdog := make(chan struct{})
	go func() {
		defer close(watchdog)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				if kb, err := procStatusKB(pid, "VmHWM"); err == nil && kb > rssLimitKB {
					cancel(errRSSLimit)
					return
				}
			}
		}
	}()

	clients := make([]*apiClient, e.clients)
	for c := range clients {
		clients[c] = newAPIClient(srv.addr, fmt.Sprintf("bench-%d", c))
		defer clients[c].close()
	}
	run := &serverRun{}
	var before series
	run.load, err = runLoad(ctx, loadSpec{
		clients: e.clients, warmup: e.warmup, window: e.window,
		op: func(c, k int, measured bool) (time.Duration, int, error) {
			return op(clients[c], c, k, measured)
		},
		cpu: func() (float64, error) { return cpuSeconds(pid) },
		atStart: func() (err error) {
			if before, err = scrapeHTTP(srv.diag); err == nil {
				run.hwmStartKB, err = procStatusKB(pid, "VmHWM")
			}
			return err
		},
	}, e.hostSpeed(w.kernel))
	if cause := context.Cause(ctx); cause != nil {
		return nil, fmt.Errorf("workload aborted: %w", cause)
	}
	if err != nil {
		return nil, err
	}
	after, err := scrapeHTTP(srv.diag)
	if err != nil {
		return nil, err
	}
	if run.hwmEndKB, err = procStatusKB(pid, "VmHWM"); err != nil {
		return nil, err
	}
	run.win = newWindow(before, after)

	cancel(nil)
	<-watchdog
	stopped = true
	run.stopErr = srv.stop()
	return run, nil
}

// gatewayOutcome folds a server run into the outcome, deriving the
// layer metrics the server's own /metrics series give (S in the README).
// respBytes is the response bytes each client read in the window.
func gatewayOutcome(run *serverRun, respBytes []int) *outcome {
	w := run.win
	bytesRead := 0
	for _, b := range respBytes {
		bytesRead += b
	}
	instances := w.d("tradefl_serve_instances_total")
	plans := w.sum("tradefl_fleet_plan_dbr_total", "tradefl_fleet_plan_pruned_total", "tradefl_fleet_plan_traversal_total")
	warm := w.sum("tradefl_fleet_warm_hits_total", "tradefl_fleet_warm_misses_total")
	memo := w.sum("tradefl_cache_primal_hits_total", "tradefl_cache_primal_misses_total")
	gbdSec := w.d("tradefl_gbd_solve_seconds_sum")
	o := &outcome{load: run.load}
	o.layers = map[string]float64{
		"serve.stream_events_per_instance": ratio(w.d("tradefl_serve_stream_events_total"), instances),
		"serve.resp_bytes_per_instance":    ratio(float64(bytesRead), instances),
		"serve.rss_peak_mb":                run.hwmEndKB / 1024,
		"serve.rss_kb_per_instance":        ratio(run.hwmEndKB-run.hwmStartKB, instances),
		"serve.rejected_share": ratio(w.sum("tradefl_serve_rejected_queue_total", "tradefl_serve_rejected_concurrency_total",
			"tradefl_serve_rejected_rate_total", "tradefl_serve_rejected_draining_total"), w.d("tradefl_serve_requests_total")),

		"fleet.cpu_share":         ratio(w.d("tradefl_fleet_solve_seconds_sum"), run.load.rawCPUSec),
		"fleet.plan_share_pruned": ratio(w.d("tradefl_fleet_plan_pruned_total"), plans),
		"fleet.plan_share_dbr":    ratio(w.d("tradefl_fleet_plan_dbr_total"), plans),
		"fleet.warm_hit_share":    ratio(w.d("tradefl_fleet_warm_hits_total"), warm),

		"gbd.master_share":          ratio(w.d("tradefl_gbd_master_seconds_sum"), gbdSec),
		"gbd.primal_share":          ratio(w.d("tradefl_gbd_primal_seconds_sum"), gbdSec),
		"gbd.iterations_per_solve":  ratio(w.d("tradefl_gbd_iterations_total"), w.d("tradefl_gbd_runs_total")),
		"gbd.primal_memo_hit_share": ratio(w.d("tradefl_cache_primal_hits_total"), memo),

		"dbr.rounds_per_solve":     ratio(w.d("tradefl_dbr_rounds_total"), w.d("tradefl_dbr_runs_total")),
		"dbr.candidates_per_solve": ratio(w.d("tradefl_dbr_candidates_total"), w.d("tradefl_dbr_runs_total")),

		"parallel.worker_busy_share": ratio(w.d("tradefl_pool_worker_busy_seconds_total"), run.load.wallSec*float64(runtime.GOMAXPROCS(0))),
	}
	o.missing = sortedKeys(w.missing)
	if run.stopErr != nil {
		o.checkErrs = append(o.checkErrs, run.stopErr)
	}
	return o
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// syncCheckEvery is the sampling stride of the edge_sync output checker:
// 1% of replies are kept and compared after the window.
const syncCheckEvery = 100

func measureEdgeSync(ctx context.Context, e *env, w *workload, in *inputs) (*outcome, error) {
	type keptReply struct {
		body  int
		reply []byte
	}
	kept := make([][]keptReply, e.clients)
	respBytes := make([]int, e.clients)
	pool := len(in.syncBodies)
	run, err := runAgainstServer(ctx, e, w, in.serverBin, func(cl *apiClient, c, k int, measured bool) (time.Duration, int, error) {
		// Clients start at different phases of the pool, so they never
		// send the same body at the same time.
		i := (c*pool/e.clients + k) % pool
		start := time.Now()
		if err := cl.solve(in.syncBodies[i]); err != nil {
			return 0, 0, err
		}
		latency := time.Since(start)
		if measured {
			respBytes[c] += cl.buf.Len()
			if k%syncCheckEvery == 0 {
				kept[c] = append(kept[c], keptReply{i, append([]byte(nil), cl.buf.Bytes()...)})
			}
		}
		return latency, 1, nil
	})
	if err != nil {
		return nil, err
	}
	o := gatewayOutcome(run, respBytes)
	for c := range kept {
		for _, kr := range kept[c] {
			o.checked++
			var reply solveReply
			if err := json.Unmarshal(kr.reply, &reply); err != nil {
				o.checkErrs = append(o.checkErrs, fmt.Errorf("client %d body %d: decode reply: %w", c, kr.body, err))
				continue
			}
			if err := checkAgainstBatch(ctx, in.syncBodies[kr.body], reply.Results); err != nil {
				o.checkErrs = append(o.checkErrs, fmt.Errorf("client %d body %d: %w", c, kr.body, err))
			}
		}
	}
	return o, nil
}

// jobSampleEvery is the stride at which a client keeps a job's final
// status for the timestamp metrics (queue wait, service time, stream lag).
const jobSampleEvery = 8

func measureJobs(ctx context.Context, e *env, w *workload, in *inputs) (*outcome, error) {
	type keptJob struct {
		body       []byte
		status     []byte
		terminalAt time.Time
	}
	kept := make([][]keptJob, e.clients)
	respBytes := make([]int, e.clients)
	run, err := runAgainstServer(ctx, e, w, in.serverBin, func(cl *apiClient, c, k int, measured bool) (time.Duration, int, error) {
		body := jobBody(e.seed, c, k, w.jobOrgs)
		job, err := cl.runJob(body)
		if err != nil {
			return 0, 0, err
		}
		if measured {
			respBytes[c] += job.bytes
			// The first kept job of each client is also the one the
			// output checker re-solves.
			if len(kept[c]) == 0 || k%jobSampleEvery == 0 {
				kept[c] = append(kept[c], keptJob{body, append([]byte(nil), cl.buf.Bytes()...), job.terminalAt})
			}
		}
		return job.latency, jobInstances, nil
	})
	if err != nil {
		return nil, err
	}
	o := gatewayOutcome(run, respBytes)

	var queueWait, service, lag []time.Duration
	for c := range kept {
		for i, kj := range kept[c] {
			var st jobStatus
			if err := json.Unmarshal(kj.status, &st); err != nil {
				o.checked++
				o.checkErrs = append(o.checkErrs, fmt.Errorf("client %d: decode job status: %w", c, err))
				continue
			}
			queueWait = append(queueWait, st.StartedAt.Sub(st.CreatedAt))
			service = append(service, st.DoneAt.Sub(st.StartedAt))
			lag = append(lag, kj.terminalAt.Sub(st.DoneAt))
			if i == 0 {
				o.checked++
				if err := checkAgainstBatch(ctx, kj.body, st.Results); err != nil {
					o.checkErrs = append(o.checkErrs, fmt.Errorf("client %d first job: %w", c, err))
				}
			}
		}
	}
	o.layers["serve.queue_wait_ms_p50"] = percentile(ms(queueWait), 50)
	o.layers["serve.service_ms_p50"] = percentile(ms(service), 50)
	o.layers["serve.stream_lag_ms_p50"] = percentile(ms(lag), 50)
	return o, nil
}

func measureSettle(ctx context.Context, e *env, w *workload, in *inputs) (*outcome, error) {
	walDir := filepath.Join(e.tmp, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, err
	}
	e.logf("settle_rpc: WAL directories on %s (%s)", walDir, fsType(walDir))
	st := newSettler(in.settle, walDir)
	defer st.close()

	// The chain runs in this process, so its series and CPU are read here,
	// between settlements: counters bracket whole settlements exactly.
	self := os.Getpid()
	var before series
	load, err := runLoad(ctx, loadSpec{
		clients: 1, warmup: e.warmup, window: e.window,
		op:  st.settle,
		cpu: func() (float64, error) { return cpuSeconds(self) },
		atStart: func() (err error) {
			before, err = scrapeSelf()
			return err
		},
	}, e.hostSpeed(w.kernel))
	if err != nil {
		return nil, err
	}
	after, err := scrapeSelf()
	if err != nil {
		return nil, err
	}

	win := newWindow(before, after)
	// Every settlement checks its own outputs inline (receipts, zero-sum
	// transfers, VerifyChain, state root against the reference), so each
	// successful op is a checked op and each wrong one a failed op.
	o := &outcome{load: load, checked: load.attempted}
	settles := float64(load.ops)
	blocks := win.d("tradefl_chain_blocks_sealed_total")
	readLat := make([]time.Duration, len(st.reads))
	lateMax := time.Duration(0)
	for i, s := range st.reads {
		readLat[i] = s.latency
		lateMax = max(lateMax, s.late)
	}
	reads := ms(readLat)
	readTail := supportedTail(len(reads), 99)
	o.layers = map[string]float64{
		"chain.sign_us_per_tx":        float64(in.settle.signTime.Microseconds()) / settleTxs,
		"chain.exec_waves_per_block":  ratio(win.d("tradefl_chain_exec_waves_total"), blocks),
		"chain.exec_groups_per_block": ratio(win.d("tradefl_chain_exec_groups_total"), blocks),
		"chain.read_us_p50":           percentile(reads, 50) * 1000,
		"chain.read_tail_ms":          percentile(reads, readTail),
		"chain.read_late_ms_max":      msf(lateMax),

		"durable.fsyncs_per_settle":  ratio(win.d("tradefl_chain_wal_fsyncs_total"), settles),
		"durable.wal_bytes_per_tx":   ratio(win.d("tradefl_chain_wal_bytes_total"), settles*settleTxs),
		"durable.fsync_ms_mean":      1000 * ratio(win.d("tradefl_chain_wal_fsync_seconds_sum"), win.d("tradefl_chain_wal_fsync_seconds_count")),
		"durable.batch_records_mean": ratio(win.d("tradefl_chain_wal_batch_records_sum"), win.d("tradefl_chain_wal_batch_records_count")),
	}
	o.missing = sortedKeys(win.missing)
	if st.readsFailed > 0 {
		o.checkErrs = append(o.checkErrs, fmt.Errorf("%d of %d paced reads failed in transport", st.readsFailed, len(st.reads)))
	}
	e.logf("settle_rpc: %d paced reads (tail p%g)", len(reads), readTail)
	return o, nil
}
