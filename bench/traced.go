package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"tradefl/internal/chain"
	"tradefl/internal/core"
	"tradefl/internal/dbr"
	"tradefl/internal/fleet"
	"tradefl/internal/game"
	"tradefl/internal/gbd"
	"tradefl/internal/obs"
	"tradefl/internal/serve"
)

// The traced pass attributes time to layers from outside the program: one
// client drives an in-process copy of the system, and after each operation
// the harness replays the calls that operation made into each layer's
// public functions, on the same inputs, recording a span around each. A
// replayed span's parent is the span whose work it re-enacts, so folding
// durations (span − children) yields each layer's self time:
//
//	serve.request                 the client's round trip / job
//	├─ serve.ParseJobSpec
//	│  └─ game.DefaultConfig      (generate specs only)
//	├─ fleet.Engine.Solve         engine with the server's worker count
//	└─ game.eval                  Payoffs + SocialWelfare + Potential
//	fleet.Engine.Solve/serial     same engine, one worker
//	├─ fleet.plan                 StatsOf + Planner.Decide
//	└─ gbd.Solve | dbr.Solve      direct solver calls, one worker
//
// The serial engine is a root of its own: the direct solver calls run on
// one goroutine, so they are compared with an engine that does too.

// Op counts of the traced passes; tracedBudget additionally bounds the
// wall time of the passes whose operations are slow.
const (
	tracedSyncOps   = 2000
	tracedJobOps    = 40
	tracedSettleOps = 60
	tracedBudget    = 8 * time.Second
	overheadBlock   = time.Second // one block of the off/on/on/off overhead comparison
	regretBudget    = time.Second // least solving time behind fleet.auto_regret_pct
)

// inprocGateway starts a gateway in this process with the options the
// server child gets from its flags.
func inprocGateway() (*serve.Server, func() error, error) {
	srv, err := serve.New("127.0.0.1:0", serve.Options{
		Runners: 4, QueueDepth: 64, TenantActive: 8, TenantRate: 1e6,
		JobTimeout: 5 * time.Minute, Limits: gatewayLimits,
	})
	if err != nil {
		return nil, nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	stop := func() error {
		if err := srv.Drain(10 * time.Second); err != nil {
			return err
		}
		return <-served
	}
	return srv, stop, nil
}

// replayer re-enacts the gateway's inner calls for one parsed request.
type replayer struct {
	rec      *recorder
	parallel *fleet.Engine // the server's shape: pool of GOMAXPROCS workers
	serial   *fleet.Engine
	planner  fleet.Planner
	chunk    int // instances per Engine.Solve call, as the server batches them
}

func newReplayer(rec *recorder, chunk int) *replayer {
	return &replayer{
		rec:      rec,
		parallel: fleet.New(fleet.Options{}),
		serial:   fleet.New(fleet.Options{Workers: 1}),
		chunk:    chunk,
	}
}

func (r *replayer) solveChunks(ctx context.Context, eng *fleet.Engine, cfgs []*game.Config) []fleet.Result {
	out := make([]fleet.Result, 0, len(cfgs))
	for lo := 0; lo < len(cfgs); lo += r.chunk {
		out = append(out, eng.Solve(ctx, cfgs[lo:min(lo+r.chunk, len(cfgs))])...)
	}
	return out
}

// replay records the layer spans of one request body under parent.
func (r *replayer) replay(ctx context.Context, parent, op int, body []byte, generated bool) error {
	rec := r.rec
	parse := rec.begin("serve.ParseJobSpec", parent, op)
	cfgs, _, err := serve.ParseJobSpec(body, gatewayLimits)
	rec.end(parse)
	if err != nil {
		return err
	}
	if generated {
		rec.timed("game.DefaultConfig", parse, op, func() {
			for _, cfg := range cfgs {
				// Regenerates the instance the parse just drew; the seed
				// only has to be a valid one of the same N.
				_, err = game.DefaultConfig(game.GenOptions{N: cfg.N(), Seed: int64(op + 1)})
			}
		})
		if err != nil {
			return err
		}
	}

	var results []fleet.Result
	rec.timed("fleet.Engine.Solve", parent, op, func() { results = r.solveChunks(ctx, r.parallel, cfgs) })
	rec.timed("game.eval", parent, op, func() {
		for i, cfg := range cfgs {
			if p := results[i].Profile; p != nil {
				cfg.Payoffs(p)
				cfg.SocialWelfare(p)
				cfg.Potential(p)
			}
		}
	})

	serial := rec.begin("fleet.Engine.Solve/serial", -1, op)
	r.solveChunks(ctx, r.serial, cfgs)
	rec.end(serial)
	decisions := make([]fleet.Decision, len(cfgs))
	rec.timed("fleet.plan", serial, op, func() {
		for i, cfg := range cfgs {
			decisions[i] = r.planner.Decide(fleet.StatsOf(cfg, 0), 0)
		}
	})
	for i, cfg := range cfgs {
		switch decisions[i].Plan {
		case fleet.PlanDBR:
			rec.timed("dbr.Solve", serial, op, func() { _, err = dbr.Solve(cfg, nil, dbr.Options{Workers: 1}) })
		case fleet.PlanTraversal:
			rec.timed("gbd.Solve", serial, op, func() { _, err = gbd.Solve(cfg, gbd.Options{Workers: 1, Master: gbd.MasterTraversal}) })
		default:
			rec.timed("gbd.Solve", serial, op, func() { _, err = gbd.Solve(cfg, gbd.Options{Workers: 1, Master: gbd.MasterPruned}) })
		}
		if err != nil {
			return fmt.Errorf("replay instance %d: %w", i, err)
		}
	}
	return nil
}

// gatewayFold turns the recorded spans into the T metrics of the gateway
// workloads. requests is the number of serve.request spans, instances the
// number of solved instances they carried.
func gatewayFold(rec *recorder, layers map[string]float64) {
	f := foldSpans(rec.spans)
	requests := float64(f["serve.request"].Count)
	instances := float64(f["gbd.Solve"].Count + f["dbr.Solve"].Count)
	layers["serve.parse_us_per_req"] = ratio(us(f["serve.ParseJobSpec"].Total), requests)
	layers["serve.self_us_per_req"] = ratio(us(f["serve.request"].Self), requests)
	layers["fleet.plan_us_per_instance"] = ratio(us(f["fleet.plan"].Total), instances)
	layers["fleet.self_us_per_instance"] = ratio(us(f["fleet.Engine.Solve/serial"].Self), instances)
	layers["gbd.solve_us_per_instance"] = ratio(us(f["gbd.Solve"].Total), float64(f["gbd.Solve"].Count))
	layers["dbr.solve_us_per_instance"] = ratio(us(f["dbr.Solve"].Total), float64(f["dbr.Solve"].Count))
	layers["game.eval_us_per_instance"] = ratio(us(f["game.eval"].Total), instances)
	layers["game.gen_us_per_instance"] = ratio(us(f["game.DefaultConfig"].Total), instances)
}

// traceOverhead compares the per-operation time of op with the program's
// tracing off and on, in off/on/on/off blocks so drift cancels: the
// throughput a traced run loses, in percent of the untraced one. Every
// block runs whole units of ops (one of each input shape, so blocks are
// alike) until overheadBlock has passed.
func traceOverhead(unit int, op func(i int) error) (float64, error) {
	defer obs.EnableTracing(obs.TracingEnabled())
	var spent [2]time.Duration
	var ops [2]int
	i := 0
	for _, mode := range []int{0, 1, 1, 0} {
		obs.EnableTracing(mode == 1)
		start := time.Now()
		for time.Since(start) < overheadBlock {
			for range unit {
				if err := op(i); err != nil {
					return 0, err
				}
				i++
			}
			ops[mode] += unit
		}
		spent[mode] += time.Since(start)
	}
	off := float64(spent[0]) / float64(ops[0])
	on := float64(spent[1]) / float64(ops[1])
	return 100 * (on - off) / off, nil
}

// autoRegret times the engine over cfgs under plan auto and under every
// fixed plan that is tractable for them, in A-B-B-A order, and returns how
// much slower auto is than the best fixed plan, in percent (negative when
// auto wins). Traversal and pruned CGBD are exponential in N, so they are
// candidates only for the small-N corpora.
func autoRegret(ctx context.Context, cfgs []*game.Config) float64 {
	fixed := []fleet.Plan{fleet.PlanDBR}
	small := true
	for _, cfg := range cfgs {
		small = small && cfg.N() <= 12
	}
	if small {
		fixed = append(fixed, fleet.PlanPruned, fleet.PlanTraversal)
	}
	order := append([]fleet.Plan{fleet.PlanAuto}, fixed...)
	for i := len(fixed) - 1; i >= 0; i-- {
		order = append(order, fixed[i])
	}
	order = append(order, fleet.PlanAuto)
	spent := make(map[fleet.Plan]time.Duration)
	// Small corpora solve in milliseconds; whole A-B-B-A rounds repeat
	// until the comparison rests on about a second of solving.
	for begun := time.Now(); time.Since(begun) < regretBudget; {
		for _, plan := range order {
			// A fresh engine per measurement: no plan inherits warm results.
			eng := fleet.New(fleet.Options{Plan: plan})
			start := time.Now()
			eng.Solve(ctx, cfgs)
			spent[plan] += time.Since(start)
		}
	}
	best := spent[fixed[0]]
	for _, plan := range fixed[1:] {
		best = min(best, spent[plan])
	}
	return 100 * ratio(float64(spent[fleet.PlanAuto]-best), float64(best))
}

func tracedEdgeSync(ctx context.Context, _ *env, _ *workload, in *inputs, rec *recorder, layers map[string]float64) (err error) {
	srv, stop, err := inprocGateway()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()
	cl := newAPIClient(srv.Addr(), "trace")
	defer cl.close()
	rp := newReplayer(rec, 8)
	for op := range tracedSyncOps {
		body := in.syncBodies[op%len(in.syncBodies)]
		root := rec.begin("serve.request", -1, op)
		err := cl.solve(body)
		rec.end(root)
		if err == nil {
			err = rp.replay(ctx, root, op, body, false)
		}
		if err != nil {
			return fmt.Errorf("traced request %d: %w", op, err)
		}
	}
	gatewayFold(rec, layers)

	layers["obs.trace_overhead_pct"], err = traceOverhead(len(syncOrgs), func(i int) error {
		return cl.solve(in.syncBodies[i%len(in.syncBodies)])
	})
	if err != nil {
		return err
	}
	var corpus []*game.Config
	for _, body := range in.syncBodies[:48] {
		cfgs, _, err := serve.ParseJobSpec(body, gatewayLimits)
		if err != nil {
			return err
		}
		corpus = append(corpus, cfgs...)
	}
	layers["fleet.auto_regret_pct"] = autoRegret(ctx, corpus)
	return nil
}

func tracedJobs(ctx context.Context, e *env, w *workload, _ *inputs, rec *recorder, layers map[string]float64) (err error) {
	srv, stop, err := inprocGateway()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()
	cl := newAPIClient(srv.Addr(), "trace")
	defer cl.close()
	rp := newReplayer(rec, 8)
	// Client 1_000 is a seed range no measured client uses.
	const traceClient = 1000
	deadline := time.Now().Add(tracedBudget)
	ops := 0
	for ; ops < tracedJobOps && (ops < len(w.jobOrgs) || time.Now().Before(deadline)); ops++ {
		body := jobBody(e.seed, traceClient, ops, w.jobOrgs)
		root := rec.begin("serve.request", -1, ops)
		_, err := cl.runJob(body)
		rec.end(root)
		if err == nil {
			err = rp.replay(ctx, root, ops, body, true)
		}
		if err != nil {
			return fmt.Errorf("traced job %d: %w", ops, err)
		}
	}
	e.logf("%s: traced %d jobs", w.Name, ops)
	gatewayFold(rec, layers)

	layers["obs.trace_overhead_pct"], err = traceOverhead(len(w.jobOrgs), func(i int) error {
		_, err := cl.runJob(jobBody(e.seed, traceClient+1, i, w.jobOrgs))
		return err
	})
	if err != nil {
		return err
	}
	var corpus []*game.Config
	for k := range w.jobOrgs {
		cfgs, _, err := serve.ParseJobSpec(jobBody(e.seed, traceClient+2, k, w.jobOrgs), gatewayLimits)
		if err != nil {
			return err
		}
		corpus = append(corpus, cfgs[:16]...)
	}
	layers["fleet.auto_regret_pct"] = autoRegret(ctx, corpus)
	return nil
}

func tracedSettle(ctx context.Context, e *env, _ *workload, in *inputs, rec *recorder, layers map[string]float64) error {
	p := in.settle
	walDir := filepath.Join(e.tmp, "wal-traced")
	st := newSettler(p, walDir)
	defer st.close()
	rpcSettle := func(k int) error {
		_, err := st.once(k, nil, nil)
		return err
	}
	// directSettle is the same lifecycle through direct Blockchain calls,
	// recording one span per chain entry point under parent.
	directSettle := func(parent, k int) error {
		dir := filepath.Join(walDir, fmt.Sprintf("direct-%04d", k))
		var bc *chain.Blockchain
		var err error
		rec.timed("chain.open", parent, k, func() {
			bc, err = chain.OpenDurableOpts(dir, p.authority, p.params, p.alloc, chain.Options{})
		})
		if err != nil {
			return err
		}
		root, err := settleOn(directLedger{bc}, p, rec, parent, k)
		rec.timed("chain.close", parent, k, func() {
			if cerr := bc.CloseDurable(); err == nil {
				err = cerr
			}
		})
		if err == nil && root != p.refRoot {
			err = fmt.Errorf("direct state root %s, want %s", root, p.refRoot)
		}
		return err
	}

	deadline := time.Now().Add(tracedBudget)
	ops := 0
	for ; ops < tracedSettleOps && (ops < 3 || time.Now().Before(deadline)); ops++ {
		root := rec.begin("settle.rpc", -1, ops)
		err := rpcSettle(ops)
		rec.end(root)
		if err == nil {
			direct := rec.begin("settle.direct", root, ops)
			err = directSettle(direct, ops)
			rec.end(direct)
		}
		if err != nil {
			return fmt.Errorf("traced settlement %d: %w", ops, err)
		}
	}
	e.logf("settle_rpc: traced %d settlements", ops)
	f := foldSpans(rec.spans)
	n := float64(ops)
	layers["chain.open_ms"] = ratio(msf(f["chain.open"].Total), n)
	layers["chain.submit_us_per_tx"] = ratio(us(f["chain.submit"].Total), n*settleTxs)
	layers["chain.seal_ms_per_block"] = ratio(msf(f["chain.seal"].Total), n*settleStages)
	layers["chain.verify_ms"] = ratio(msf(f["chain.verify"].Total), n)
	layers["chain.close_ms"] = ratio(msf(f["chain.close"].Total), n)
	layers["chain.rpc_self_ms_per_settle"] = ratio(msf(f["settle.rpc"].Self), n)

	var err error
	layers["obs.trace_overhead_pct"], err = traceOverhead(1, func(i int) error { return rpcSettle(tracedSettleOps + i) })
	if err != nil {
		return err
	}

	// The library facade, for reference: one mechanism run of the same
	// game without and with settlement (on core's own in-memory chain).
	mech, err := core.New(p.cfg)
	if err != nil {
		return err
	}
	const coreRuns = 3
	for i := range coreRuns {
		for _, settle := range []bool{false, true} {
			name := "core.Run"
			if settle {
				name = "core.Run+settle"
			}
			rec.timed(name, -1, tracedSettleOps+i, func() {
				_, err = mech.Run(ctx, core.Options{Settle: settle})
			})
			if err != nil {
				return err
			}
		}
	}
	f = foldSpans(rec.spans)
	layers["core.run_solve_ms"] = msf(f["core.Run"].Total) / coreRuns
	layers["core.run_settle_ms"] = msf(f["core.Run+settle"].Total-f["core.Run"].Total) / coreRuns
	return nil
}
