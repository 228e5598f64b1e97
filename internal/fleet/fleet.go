package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"time"

	"tradefl/internal/accuracy"
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
	// lets the cost model pick per instance.
	Plan Plan
	// Workers bounds the goroutines solving instances concurrently
	// (0 = process default). Instance results are byte-identical for every
	// worker count; only throughput changes.
	Workers int
	// GBD carries the base CGBD options. Master and Workers are overridden
	// per instance by the planner; Epsilon and MaxIter apply to every CGBD
	// solve and key the warm result cache.
	GBD gbd.Options
	// DBR carries the base Algorithm 2 options.
	DBR dbr.Options
	// Profile is the calibrated cost profile (nil = built-in defaults).
	Profile *CostProfile
	// WarmCap bounds the result memo, one entry per distinct config pointer
	// (0 = 4096; negative disables it — for callers that never present a
	// config pointer twice, such as the gateway).
	WarmCap int
}

// Result is the outcome of one instance solve. Profiles, payoffs and solver
// results may be shared with the engine's result memo across repeated solves of an
// unchanged instance — treat them as read-only.
type Result struct {
	// Plan is the concrete plan the instance was solved with.
	Plan Plan
	// Decision is the full planner verdict.
	Decision Decision
	// Warm reports that the result was served from the warm result cache
	// (byte-identical to re-solving, by the determinism contract).
	Warm bool
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

// warmEntry is the per-config result memo: the last successful result and
// what it was computed from. Guarded by Engine.mu. Solver scratch is not
// the engine's business — gbd and dbr pool their own, whatever the config.
type warmEntry struct {
	sig uint64
	acc accuracy.Model
	res Result
}

// Engine schedules instance solves over a shared worker pool, consulting
// the planner per instance and memoizing the last result per config
// pointer across batches and campaign epochs.
type Engine struct {
	opts    Options
	planner Planner

	mu    sync.Mutex
	warm  map[*game.Config]*warmEntry
	order []*game.Config // FIFO eviction order of warm entries
}

// DefaultWarmCap bounds retained warm entries when Options.WarmCap is 0.
const DefaultWarmCap = 4096

// New builds a fleet engine.
func New(opts Options) *Engine {
	if opts.WarmCap == 0 {
		opts.WarmCap = DefaultWarmCap
	}
	return &Engine{
		opts:    opts,
		planner: Planner{Forced: opts.Plan, Prof: opts.Profile},
		warm:    make(map[*game.Config]*warmEntry),
	}
}

// Planner exposes the engine's planner (for reporting predicted costs).
func (e *Engine) Planner() *Planner { return &e.planner }

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
	// Idle pool workers an instance may additionally occupy for
	// within-instance sharding: none while the batch itself can keep the
	// pool busy. Influences only byte-identical knobs.
	spare := workers - n
	if spare < 0 {
		spare = 0
	}
	mBatches.Inc()
	mInstances.Add(int64(n))
	mQueue.Add(float64(n))
	start := time.Now()
	ctx, batchSpan := obs.Span(ctx, "fleet.batch")
	order := e.schedule(cfgs)
	err := parallel.ForCtxLabeled(ctx, "fleet.batch", workers, n, func(i int) error {
		idx := order[i]
		res[idx] = e.solveOne(ctx, cfgs[idx], spare)
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
	if obs.TelemetryOpen() {
		failed := 0
		for i := range res {
			if res[i].Err != nil {
				failed++
			}
		}
		rec := batchTelemetry{Kind: "fleet.batch", Instances: n, Failed: failed, Seconds: dt}
		if dt > 0 {
			rec.SolvesPerSec = float64(n) / dt
		}
		if tc, ok := batchSpan.TraceContext(); ok {
			rec.TraceID = tc.TraceID
		}
		obs.EmitTelemetry(rec)
	}
	return res
}

// batchTelemetry is the per-batch aggregate emitted to -telemetry-out.
type batchTelemetry struct {
	Kind         string  `json:"kind"`
	TraceID      string  `json:"traceId,omitempty"`
	Instances    int     `json:"instances"`
	Failed       int     `json:"failed"`
	Seconds      float64 `json:"seconds"`
	SolvesPerSec float64 `json:"solvesPerSec,omitempty"`
}

// schedule orders the batch by (plan, shape) so consecutive solves share
// solver code paths, pooled engines and arena size classes — a mixed batch
// in input order thrashes them. Results are position-independent (the
// determinism contract), so solve order is free throughput; the ordering
// itself is deterministic (stats plus index tie-break, never load or cache
// state).
func (e *Engine) schedule(cfgs []*game.Config) []int {
	order := make([]int, len(cfgs))
	keys := make([]Stats, len(cfgs))
	plans := make([]Plan, len(cfgs))
	for i, cfg := range cfgs {
		order[i] = i
		keys[i] = StatsOf(cfg, e.opts.GBD.Epsilon)
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

// SolveOne solves a single instance through the fleet path (planner, warm
// state, metrics). A lone instance may use the whole pool for
// within-instance sharding.
func (e *Engine) SolveOne(cfg *game.Config) Result {
	return e.SolveOneCtx(context.Background(), cfg)
}

// SolveOneCtx is SolveOne under a caller context: the instance's solver
// span joins the trace carried by ctx (the campaign loop threads its run
// trace through here), with no effect on the computed result.
func (e *Engine) SolveOneCtx(ctx context.Context, cfg *game.Config) Result {
	mBatches.Inc()
	mInstances.Inc()
	return e.solveOne(ctx, cfg, parallel.Resolve(e.opts.Workers)-1)
}

func (e *Engine) solveOne(ctx context.Context, cfg *game.Config, spare int) Result {
	start := time.Now()
	defer func() { mSolveSec.Observe(time.Since(start).Seconds()) }()

	var sig uint64
	if e.opts.WarmCap >= 0 { // the memo's key; hashing every org and ρ entry buys nothing when it is off
		sig = cfg.Signature()
	}
	// Plan first: the choice depends only on (stats, profile), so the memo
	// lookup below can key on the plan without the plan depending on the
	// memo — the loop that would break batch/one-at-a-time equivalence.
	dec := e.planner.Decide(StatsOf(cfg, e.opts.GBD.Epsilon), spare)
	if memo, ok := e.recall(cfg, sig, dec); ok {
		return memo
	}
	mWarmMisses.Inc()
	planCounter(dec.Plan).Inc()

	r := Result{Plan: dec.Plan, Decision: dec}
	switch dec.Plan {
	case PlanDBR:
		dres, err := dbr.SolveCtx(ctx, cfg, nil, e.opts.DBR)
		if err != nil {
			r.Err = err
			break
		}
		r.DBR, r.Profile = dres, dres.Profile
		r.Payoffs, r.Potential = dres.Final()
	default:
		gres, err := gbd.SolveCtx(ctx, cfg, e.gbdOpts(dec))
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
	e.remember(cfg, sig, &r)
	return r
}

// gbdOpts maps a planner decision onto the engine's base CGBD options.
func (e *Engine) gbdOpts(dec Decision) gbd.Options {
	gopts := e.opts.GBD
	gopts.Workers = dec.Workers
	if dec.Plan == PlanTraversal {
		gopts.Master = gbd.MasterTraversal
	} else {
		gopts.Master = gbd.MasterPruned
	}
	return gopts
}

// recall returns the memoized result of cfg when it was computed from the
// same values (sig, accuracy model) under the same plan — the warm hit.
func (e *Engine) recall(cfg *game.Config, sig uint64, dec Decision) (Result, bool) {
	if e.opts.WarmCap < 0 {
		return Result{}, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ent := e.warm[cfg]
	if ent == nil || ent.sig != sig || ent.res.Plan != dec.Plan || !game.SameModel(ent.acc, cfg.Accuracy) {
		return Result{}, false
	}
	mWarmHits.Inc()
	r := ent.res
	r.Decision = Decision{Plan: dec.Plan, Workers: 1, PredictedNs: dec.PredictedNs}
	r.Warm = true
	return r, true
}

// remember installs a successful result as cfg's memo, evicting the oldest
// entry (FIFO) past WarmCap.
func (e *Engine) remember(cfg *game.Config, sig uint64, r *Result) {
	if e.opts.WarmCap < 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ent := e.warm[cfg]
	if ent == nil {
		ent = &warmEntry{}
		e.warm[cfg] = ent
		e.order = append(e.order, cfg)
		if len(e.order) > e.opts.WarmCap {
			delete(e.warm, e.order[0])
			e.order = e.order[1:]
		}
	}
	ent.sig, ent.acc, ent.res = sig, cfg.Accuracy, *r
}

// ErrAuditMismatch reports a batch output that differed from its cold
// re-solve — a violated determinism contract.
var ErrAuditMismatch = errors.New("fleet: audit: batch result differs from cold re-solve")

// Audit re-solves a deterministic sample of the batch cold (fresh solver,
// no warm state, same plan) and compares profiles bitwise; with the verify
// subsystem enabled it additionally runs the solver invariant checks on
// the sampled results. fraction ∈ (0, 1] bounds the sampled share (at
// least one instance when the batch is non-empty). It returns the number
// of audited instances and the first mismatch.
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
	rng := rand.New(rand.NewSource(seed))
	audited := 0
	for i := range cfgs {
		if results[i].Err != nil || results[i].Profile == nil {
			continue
		}
		if rng.Float64() >= fraction && !(audited == 0 && i == len(cfgs)-1) {
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
		dres, err = dbr.Solve(cfg, nil, e.opts.DBR)
		if err == nil {
			cold = dres.Profile
			if a := verify.Global(); a != nil {
				a.CheckDBR(cfg, dres, "fleet.audit")
			}
		}
	default:
		var gres *gbd.Result
		gopts := e.gbdOpts(Decision{Plan: r.Plan, Workers: 1})
		gres, err = gbd.Solve(cfg, gopts)
		if err == nil {
			cold = gres.Profile
			if a := verify.Global(); a != nil {
				eps := e.opts.GBD.Epsilon
				if eps == 0 {
					eps = 1e-6
				}
				a.CheckGBD(cfg, gres, eps, "fleet.audit")
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
