package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"time"

	"tradefl/internal/dbr"
	"tradefl/internal/game"
	"tradefl/internal/gbd"
	"tradefl/internal/obs"
	"tradefl/internal/parallel"
	"tradefl/internal/verify"
)

// Options configures a fleet Engine.
type Options struct {
	// Plan forces one solver for every instance; PlanAuto (the zero value)
	// lets the planner pick per instance by size.
	Plan Plan
	// Workers bounds the goroutines solving instances concurrently
	// (0 = process default). Instance results are byte-identical for every
	// worker count; only throughput changes.
	Workers int
}

// Result is the outcome of one instance solve.
type Result struct {
	// Plan is the concrete plan the instance was solved with.
	Plan Plan
	// Profile is the equilibrium profile.
	Profile game.Profile
	// Potential, Payoffs and Welfare are U, every C_i and Σ_i C_i at
	// Profile, evaluated once by the solve: cfg.Potential, cfg.Payoffs and
	// cfg.SocialWelfare of Profile to the bit, for every reader downstream.
	Potential float64
	Payoffs   []float64
	Welfare   float64
	// GBD / DBR carry the underlying solver result (exactly one non-nil on
	// success).
	GBD *gbd.Result
	DBR *dbr.Result
	// Err is the per-instance failure, or the batch context error for
	// instances skipped after cancellation.
	Err error
}

// Engine schedules instance solves over a shared worker pool, consulting
// the planner per instance. It holds no state between solves: solver
// scratch is not the engine's business — gbd and dbr pool their own,
// whatever the config.
type Engine struct {
	opts    Options
	planner Planner
}

// New builds a fleet engine.
func New(opts Options) *Engine {
	return &Engine{opts: opts, planner: Planner{Forced: opts.Plan}}
}

// Solve solves every instance of the batch and returns the per-instance
// results in input order. Each result is byte-identical to solving that
// instance alone with the same plan; per-instance failures are recorded in
// Result.Err without aborting the batch. Cancelling ctx stops scheduling
// new instances (skipped instances carry ctx's error).
func (e *Engine) Solve(ctx context.Context, cfgs []*game.Config) []Result {
	n := len(cfgs)
	res := make([]Result, n)
	if n == 0 {
		return res
	}
	workers := parallel.Resolve(e.opts.Workers)
	mBatches.Inc()
	mInstances.Add(int64(n))
	mQueue.Add(float64(n))
	start := time.Now()
	ctx, batchSpan := obs.Span(ctx, "fleet.batch")
	order := e.schedule(cfgs)
	err := parallel.ForCtxLabeled(ctx, "fleet.batch", workers, n, func(i int) error {
		idx := order[i]
		res[idx] = e.solveOne(ctx, cfgs[idx])
		mQueue.Add(-1)
		return nil
	})
	if err != nil {
		for i := range res {
			if res[i].Plan == PlanAuto && res[i].Err == nil { // never scheduled
				res[i].Err = err
				mQueue.Add(-1)
			}
		}
	}
	batchSpan.End()
	dt := time.Since(start).Seconds()
	mBatchSec.Observe(dt)
	if dt > 0 {
		mRate.Set(float64(n) / dt)
	}
	return res
}

// schedule orders the batch by (plan, shape) so consecutive solves share
// solver code paths, pooled engines and arena size classes — a mixed batch
// in input order thrashes them. Results are position-independent (the
// determinism contract), so solve order is free throughput; the ordering
// itself is deterministic (stats plus index tie-break, never load).
func (e *Engine) schedule(cfgs []*game.Config) []int {
	order := make([]int, len(cfgs))
	keys := make([]Stats, len(cfgs))
	plans := make([]Plan, len(cfgs))
	for i, cfg := range cfgs {
		order[i] = i
		keys[i] = StatsOf(cfg, 0)
		plans[i] = e.planner.Decide(keys[i], 0).Plan
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if plans[ia] != plans[ib] {
			return plans[ia] < plans[ib]
		}
		if keys[ia].N != keys[ib].N {
			return keys[ia].N < keys[ib].N
		}
		if keys[ia].Grid != keys[ib].Grid {
			return keys[ia].Grid < keys[ib].Grid
		}
		return ia < ib
	})
	return order
}

// SolveOne solves a single instance through the fleet path (planner,
// metrics) on the calling goroutine.
func (e *Engine) SolveOne(cfg *game.Config) Result {
	return e.SolveOneCtx(context.Background(), cfg)
}

// SolveOneCtx is SolveOne under a caller context: the instance's solver
// span joins the trace carried by ctx (the campaign loop threads its run
// trace through here), with no effect on the computed result.
func (e *Engine) SolveOneCtx(ctx context.Context, cfg *game.Config) Result {
	mBatches.Inc()
	mInstances.Inc()
	return e.solveOne(ctx, cfg)
}

func (e *Engine) solveOne(ctx context.Context, cfg *game.Config) Result {
	start := time.Now()
	defer func() { mSolveSec.Observe(time.Since(start).Seconds()) }()

	plan := e.planner.Decide(StatsOf(cfg, 0), 0).Plan
	planCounter(plan).Inc()

	r := Result{Plan: plan}
	switch plan {
	case PlanDBR:
		dres, err := dbr.SolveCtx(ctx, cfg, nil, dbr.Options{})
		if err != nil {
			r.Err = err
			break
		}
		r.DBR, r.Profile = dres, dres.Profile
		r.Payoffs, r.Potential = dres.Final()
	default:
		gres, err := gbd.SolveCtx(ctx, cfg, gbdOpts(plan))
		if err != nil {
			r.Err = err
			break
		}
		r.GBD, r.Profile, r.Potential = gres, gres.Profile, gres.Potential
		r.Payoffs = cfg.Payoffs(gres.Profile)
	}
	if r.Err != nil {
		mErrors.Inc()
		return r
	}
	r.Welfare = game.Welfare(r.Payoffs)
	return r
}

// gbdOpts maps a CGBD plan onto its master solver.
func gbdOpts(plan Plan) gbd.Options {
	if plan == PlanTraversal {
		return gbd.Options{Master: gbd.MasterTraversal}
	}
	return gbd.Options{Master: gbd.MasterPruned}
}

// ErrAuditMismatch reports a batch output that differed from its cold
// re-solve — a violated determinism contract.
var ErrAuditMismatch = errors.New("fleet: audit: batch result differs from cold re-solve")

// Audit re-solves a deterministic sample of the batch cold (same plan) and
// compares profiles bitwise; with the verify subsystem enabled it
// additionally runs the solver invariant checks on the sampled results.
// fraction ∈ (0, 1] bounds the sampled share (at least one instance when
// the batch holds a solved one). It returns the number of audited instances
// and the first mismatch.
func (e *Engine) Audit(cfgs []*game.Config, results []Result, fraction float64, seed int64) (int, error) {
	if len(cfgs) != len(results) {
		return 0, fmt.Errorf("fleet: audit: %d configs vs %d results", len(cfgs), len(results))
	}
	if fraction <= 0 || len(cfgs) == 0 {
		return 0, nil
	}
	if fraction > 1 {
		fraction = 1
	}
	eligible := func(i int) bool { return results[i].Err == nil && results[i].Profile != nil }
	last := len(cfgs) - 1 // the last eligible instance: sampled if none before it was
	for last >= 0 && !eligible(last) {
		last--
	}
	rng := rand.New(rand.NewSource(seed))
	audited := 0
	for i := range cfgs {
		if !eligible(i) {
			continue
		}
		if rng.Float64() >= fraction && !(audited == 0 && i == last) {
			continue
		}
		audited++
		mAudits.Inc()
		if err := e.auditOne(cfgs[i], &results[i]); err != nil {
			return audited, fmt.Errorf("instance %d (plan %s): %w", i, results[i].Plan, err)
		}
	}
	return audited, nil
}

func (e *Engine) auditOne(cfg *game.Config, r *Result) error {
	var (
		cold game.Profile
		err  error
	)
	switch r.Plan {
	case PlanDBR:
		var dres *dbr.Result
		dres, err = dbr.Solve(cfg, nil, dbr.Options{})
		if err == nil {
			cold = dres.Profile
			if a := verify.Global(); a != nil {
				a.CheckDBR(cfg, dres, "fleet.audit")
			}
		}
	default:
		var gres *gbd.Result
		gres, err = gbd.Solve(cfg, gbdOpts(r.Plan))
		if err == nil {
			cold = gres.Profile
			if a := verify.Global(); a != nil {
				a.CheckGBD(cfg, gres, gbd.DefaultEpsilon, "fleet.audit")
			}
		}
	}
	if err != nil {
		return fmt.Errorf("fleet: audit: cold re-solve failed: %w", err)
	}
	if !reflect.DeepEqual(r.Profile, cold) {
		return fmt.Errorf("%w\nbatch: %+v\ncold:  %+v", ErrAuditMismatch, r.Profile, cold)
	}
	return nil
}
