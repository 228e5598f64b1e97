package fleet

import (
	"context"
	"fmt"
	"sort"
	"time"

	"tradefl/internal/dbr"
	"tradefl/internal/game"
	"tradefl/internal/gbd"
	"tradefl/internal/obs"
	"tradefl/internal/parallel"
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

// Solve is SolveInstances over configs, each checked by the worker that
// solves it into an instance that borrows the config for the call
// (game.TakeInstance without a copy): no config may change until Solve
// returns. A config the check refuses fails in its own Result.Err, worded
// as its plan's solver words it.
func (e *Engine) Solve(ctx context.Context, cfgs []*game.Config) []Result {
	return e.solve(ctx, cfgs, func(i int) (*game.Instance, error) { return game.TakeInstance(*cfgs[i]) })
}

// SolveInstances solves every instance of the batch and returns the
// per-instance results in input order. Each result is byte-identical to
// solving that instance alone with the same plan; per-instance failures
// are recorded in Result.Err without aborting the batch. Cancelling ctx
// stops scheduling new instances (skipped instances carry ctx's error).
func (e *Engine) SolveInstances(ctx context.Context, games []*game.Instance) []Result {
	cfgs := make([]*game.Config, len(games))
	for i, in := range games {
		cfgs[i] = in.Config()
	}
	return e.solve(ctx, cfgs, func(i int) (*game.Instance, error) { return games[i], nil })
}

// solve is the batch over cfgs; instance(i) is cfgs[i]'s instance, or the
// check's refusal of it.
func (e *Engine) solve(ctx context.Context, cfgs []*game.Config, instance func(i int) (*game.Instance, error)) []Result {
	n := len(cfgs)
	res := make([]Result, n)
	if n == 0 {
		return res
	}
	workers := parallel.Resolve(e.opts.Workers)
	mInstances.Add(int64(n))
	ctx, batchSpan := obs.Span(ctx, "fleet.batch")
	order := e.schedule(cfgs)
	err := parallel.ForCtxLabeled(ctx, "fleet.batch", workers, n, func(i int) error {
		idx := order[i]
		in, err := instance(idx)
		res[idx] = e.solveOne(ctx, cfgs[idx], in, err)
		return nil
	})
	if err != nil {
		for i := range res {
			if res[i].Plan == PlanAuto && res[i].Err == nil { // never scheduled
				res[i].Err = err
			}
		}
	}
	batchSpan.End()
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

// SolveOneCtx solves a single config through the fleet path (check,
// planner, metrics) on the calling goroutine, the instance borrowing cfg
// as in Solve. The instance's solver span joins the trace carried by ctx
// (the campaign loop threads its run trace through here), with no effect
// on the computed result.
func (e *Engine) SolveOneCtx(ctx context.Context, cfg *game.Config) Result {
	mInstances.Inc()
	in, err := game.TakeInstance(*cfg)
	return e.solveOne(ctx, cfg, in, err)
}

// solveOne solves in, cfg's instance, or records checkErr, the check's
// refusal of cfg.
func (e *Engine) solveOne(ctx context.Context, cfg *game.Config, in *game.Instance, checkErr error) Result {
	start := time.Now()
	defer func() { mSolveSec.Observe(time.Since(start).Seconds()) }()

	plan := e.planner.Decide(StatsOf(cfg, 0), 0).Plan
	planCounter(plan).Inc()

	r := Result{Plan: plan}
	switch {
	case checkErr != nil && plan == PlanDBR:
		r.Err = fmt.Errorf("dbr: %w", checkErr)
	case checkErr != nil:
		r.Err = fmt.Errorf("gbd: %w", checkErr)
	case plan == PlanDBR:
		dres, err := dbr.SolveInstance(ctx, in, nil, dbr.Options{})
		if err != nil {
			r.Err = err
			break
		}
		r.DBR, r.Profile = dres, dres.Profile
		r.Payoffs, r.Potential = dres.Final()
	default:
		gres, err := gbd.SolveInstance(ctx, in, gbdOpts(plan))
		if err != nil {
			r.Err = err
			break
		}
		r.GBD, r.Profile, r.Potential = gres, gres.Profile, gres.Potential
		r.Payoffs = in.Payoffs(gres.Profile)
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
