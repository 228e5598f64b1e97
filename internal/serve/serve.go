// Package serve is the mechanism-as-a-service gateway: a long-running,
// multi-tenant HTTP edge over the solver core (fleet engine + planner)
// that turns one-shot batch runs into concurrent coopetition-game jobs.
// It provides job creation/inspection/cancellation, a synchronous solve
// path for small instances, admission control (a bounded queue plus
// per-tenant concurrency and instance-token quotas, 429 on overflow),
// SSE progress streams of the solver's convergence series, and a hardened
// edge: panic recovery with flight-recorder dumps, request IDs, per-route
// deadlines, explicit body limits and bounded graceful drain.
package serve

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"tradefl/internal/fleet"
	"tradefl/internal/game"
	"tradefl/internal/httpx"
	"tradefl/internal/obs"
)

var log = obs.Component("serve")

// Options configures a gateway.
type Options struct {
	// Runners is the number of concurrent job executors (default 4). Each
	// runner drives whole jobs; instance-level parallelism inside a job
	// comes from the shared fleet pool.
	Runners int
	// QueueDepth bounds jobs waiting for a runner (default 64); submissions
	// past it are rejected with 429.
	QueueDepth int
	// TenantActive caps one tenant's queued+running jobs (default 8).
	TenantActive int
	// TenantRate refills each tenant's instance-token bucket (instances
	// per second, default 64; New rejects a rate that is not finite and
	// positive): every admitted instance — async or sync — costs one
	// token, so a tenant's sustained solve throughput is bounded no matter
	// how it shapes its jobs. The bucket holds burstSeconds of refill.
	TenantRate float64
	// Limits bounds async job specs (defaults: 64 orgs, 1024 instances).
	Limits Limits
	// JobTimeout bounds one job's solve wall time (default 5m).
	JobTimeout time.Duration
	// DumpWriter receives flight-recorder dumps on handler panics
	// (default os.Stderr).
	DumpWriter io.Writer
}

// The gateway's fixed limits.
const (
	// burstSeconds sizes each tenant's token bucket: it holds
	// burstSeconds × TenantRate instances.
	burstSeconds = 4
	// syncMaxN and syncMaxInstances bound the synchronous /v1/solve path;
	// anything larger must go through the async queue.
	syncMaxN         = 12
	syncMaxInstances = 8
	// maxBody caps request bodies, mirroring the chain RPC edge: over-limit
	// requests get an explicit 413, never a silent truncation.
	maxBody = 1 << 20
	// routeTimeout is the write deadline of request/response routes.
	// Progress streams opt out per request.
	routeTimeout = 30 * time.Second
	// retainJobs caps terminal jobs kept for inspection, FIFO-evicted.
	retainJobs = 1024
	// streamChunk is the number of instances solved per fleet batch inside
	// a job: smaller chunks stream progress sooner, larger ones amortize
	// scheduling. Outputs are byte-identical either way (the fleet
	// determinism contract).
	streamChunk = 8
)

func (o Options) withDefaults() Options {
	if o.Runners == 0 {
		o.Runners = 4
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	if o.TenantActive == 0 {
		o.TenantActive = 8
	}
	if o.TenantRate == 0 {
		o.TenantRate = 64
	}
	if o.Limits.MaxOrgs == 0 {
		o.Limits.MaxOrgs = 64
	}
	if o.Limits.MaxInstances == 0 {
		o.Limits.MaxInstances = 1024
	}
	if o.JobTimeout == 0 {
		o.JobTimeout = 5 * time.Minute
	}
	if o.DumpWriter == nil {
		o.DumpWriter = os.Stderr
	}
	return o
}

// Server is one gateway instance.
type Server struct {
	opts Options
	http *http.Server
	ln   net.Listener

	queue chan *Job

	mu          sync.Mutex
	draining    bool
	queueClosed bool
	jobs        map[string]*Job
	order       []string // retention FIFO over terminal jobs
	tenants     map[string]*tenantState
	// tenantSweepAt is the tenant-table size that triggers the next sweep
	// of idle entries (tenantLocked).
	tenantSweepAt int
	nextJob       uint64

	idBase  uint64
	runners sync.WaitGroup
	stop    chan struct{} // closed when drain begins; unblocks idle streams
}

// New builds a gateway and binds addr (e.g. "127.0.0.1:8080" or ":0").
// Call Serve to start handling requests and Drain to stop.
func New(addr string, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	// NaN or +Inf would admit everything and a negative rate nothing.
	if !(opts.TenantRate > 0 && opts.TenantRate <= math.MaxFloat64) {
		return nil, fmt.Errorf("serve: tenant rate %v is not a finite positive number", opts.TenantRate)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s := &Server{
		opts:    opts,
		ln:      ln,
		queue:   make(chan *Job, opts.QueueDepth),
		jobs:    make(map[string]*Job),
		tenants: make(map[string]*tenantState),
		idBase:  uint64(time.Now().UnixNano()),
		stop:    make(chan struct{}),
	}
	// Harden fills full-request read/write/idle timeouts; the SSE route
	// opts out of the write deadline per request.
	s.http = httpx.Harden(&http.Server{Handler: s.handler()})
	for i := 0; i < opts.Runners; i++ {
		s.runners.Add(1)
		go s.runLoop()
	}
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// burst is each tenant's bucket capacity in instances.
func (s *Server) burst() float64 { return burstSeconds * s.opts.TenantRate }

// Serve blocks handling requests until Drain.
func (s *Server) Serve() error {
	err := s.http.Serve(s.ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// runLoop is one job executor: it drains the queue until the queue closes
// (graceful drain) — queued jobs admitted before the drain still run.
func (s *Server) runLoop() {
	defer s.runners.Done()
	for job := range s.queue {
		mQueueDepth.Add(-1)
		s.runJob(job)
	}
}

// runJob executes one job through the shared fleet engine, streaming
// instance completions and convergence progress as events.
func (s *Server) runJob(job *Job) {
	defer func() {
		mJobSec.ObserveSince(job.Created)
		s.release(job.Tenant)
		s.retain(job)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), s.opts.JobTimeout)
	defer cancel()
	job.mu.Lock()
	job.cancel = cancel
	remote := job.remoteTC
	cfgs := job.cfgs // nil once the job was cancelled while queued
	job.mu.Unlock()

	// The job span joins the submitter's trace when the request carried
	// one (X-Trace-Id/X-Span-Id), so one trace covers client → gateway →
	// solver; otherwise it roots a fresh trace.
	ctx, span := obs.SpanRemote(ctx, "serve.job", remote)
	defer span.End()
	traceID := ""
	if tc, ok := span.TraceContext(); ok {
		traceID = tc.TraceID
	}

	if !job.setRunning(traceID) {
		// Cancelled while queued; its terminal event is already published.
		mJobsCancelled.Inc()
		return
	}
	log.Debug("job running", "id", job.ID, "tenant", job.Tenant, "instances", len(cfgs))

	failed := false
	for lo := 0; lo < len(cfgs); lo += streamChunk {
		chunk := cfgs[lo:min(lo+streamChunk, len(cfgs))]
		results := fleet.New(fleet.Options{Plan: job.plan}).Solve(ctx, chunk)
		solved, progress := make([]InstanceResult, len(results)), make([][]Event, len(results))
		for i, r := range results {
			solved[i], progress[i] = newInstanceResult(lo+i, r), progressEvents(lo+i, r)
			failed = failed || solved[i].Error != ""
		}
		job.addResults(progress, solved)
		mInstances.Add(int64(len(chunk)))
		if ctx.Err() != nil {
			break
		}
	}

	switch {
	case ctx.Err() == context.Canceled:
		job.finish(StateCancelled, "cancelled")
		mJobsCancelled.Inc()
		obs.FlightRecord("serve", "job-cancelled", job.ID)
	case ctx.Err() == context.DeadlineExceeded:
		job.finish(StateFailed, fmt.Sprintf("job timeout after %v", s.opts.JobTimeout))
		mJobsFailed.Inc()
	case failed:
		job.finish(StateFailed, "one or more instances failed")
		mJobsFailed.Inc()
	default:
		job.finish(StateDone, "")
		mJobsDone.Inc()
	}
	log.Debug("job finished", "id", job.ID, "state", job.State(), "seconds", time.Since(job.Created).Seconds())
}

// syncSolve runs the bounded synchronous path: small instances solved
// inline on the request goroutine, still through the fleet engine (and so
// still byte-identical to a batch run).
func (s *Server) syncSolve(ctx context.Context, cfgs []*game.Config, plan fleet.Plan) []InstanceResult {
	mSyncSolves.Inc()
	mInstances.Add(int64(len(cfgs)))
	results := fleet.New(fleet.Options{Plan: plan}).Solve(ctx, cfgs)
	out := make([]InstanceResult, len(results))
	for i, r := range results {
		out[i] = newInstanceResult(i, r)
	}
	return out
}

// lookupJob returns a job by ID.
func (s *Server) lookupJob(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// retain moves a job into the terminal-retention FIFO, evicting the
// oldest entries past the cap. Live jobs are never evicted.
func (s *Server) retain(job *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.order = append(s.order, job.ID)
	for len(s.order) > retainJobs {
		victim := s.order[0]
		s.order = s.order[1:]
		if j := s.jobs[victim]; j != nil && j.State().terminal() {
			delete(s.jobs, victim)
		}
	}
}

// Drain stops the gateway gracefully within timeout: new submissions get
// 503, queued and running jobs complete, streams flush their final
// events, then the HTTP server shuts down. Jobs still running when the
// timeout expires are cancelled so the drain is bounded.
func (s *Server) Drain(timeout time.Duration) error {
	mDrains.Inc()
	deadline := time.Now().Add(timeout)
	s.mu.Lock()
	alreadyDraining := s.draining
	s.draining = true
	if !s.queueClosed {
		s.queueClosed = true
		close(s.queue)
	}
	s.mu.Unlock()
	if !alreadyDraining {
		close(s.stop)
		log.Info("draining", "timeout", timeout)
	}

	// Wait for the runners to finish every admitted job, cancelling what
	// remains once half the budget is spent so shutdown always terminates.
	done := make(chan struct{})
	go func() {
		s.runners.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout / 2):
		s.mu.Lock()
		for _, j := range s.jobs {
			if !j.State().terminal() {
				j.Cancel()
			}
		}
		s.mu.Unlock()
		select {
		case <-done:
		case <-time.After(time.Until(deadline)):
			return fmt.Errorf("serve: drain: runners still busy after %v", timeout)
		}
	}
	return httpx.Shutdown(s.http, time.Until(deadline))
}
