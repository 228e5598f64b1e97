package serve

import (
	"fmt"
	"math"
	"net/http"
	"time"
)

// tenantState is the per-tenant admission bookkeeping: how many of its
// jobs are queued or running, and its instance-token bucket. Guarded by
// Server.mu.
type tenantState struct {
	active int
	tokens float64
	last   time.Time
}

// admitError is an admission rejection: the HTTP status, a client-facing
// reason, and an optional Retry-After hint in seconds.
type admitError struct {
	status     int
	reason     string
	retryAfter int
}

func (e *admitError) Error() string { return e.reason }

// refillLocked tops the bucket up for the time elapsed since the last
// admission decision. Callers hold Server.mu.
func (t *tenantState) refillLocked(now time.Time, rate, burst float64) {
	if t.last.IsZero() {
		t.tokens = burst
	} else {
		t.tokens = math.Min(burst, t.tokens+rate*now.Sub(t.last).Seconds())
	}
	t.last = now
}

// idleLocked reports whether the tenant is indistinguishable from one the
// gateway has never seen: no job queued or running, and a bucket that is
// full once refilled to now. Callers hold Server.mu.
func (t *tenantState) idleLocked(now time.Time, rate, burst float64) bool {
	return t.active == 0 && t.tokens+rate*now.Sub(t.last).Seconds() >= burst
}

// minTenantSweep is the table size below which idle tenants are not swept.
const minTenantSweep = 64

// tenantLocked returns (creating if needed) the tenant's state with its
// bucket refilled. The table is keyed by a client-chosen header, so it is
// swept of idle tenants whenever it has doubled since the last sweep:
// amortized constant work per new tenant, and a table no larger than twice
// the tenants that hold a job or owe tokens. Callers hold Server.mu.
func (s *Server) tenantLocked(name string, now time.Time) *tenantState {
	t := s.tenants[name]
	if t == nil {
		if len(s.tenants) >= s.tenantSweepAt {
			for k, old := range s.tenants {
				if old.idleLocked(now, s.opts.TenantRate, s.burst()) {
					delete(s.tenants, k)
				}
			}
			s.tenantSweepAt = max(minTenantSweep, 2*len(s.tenants))
		}
		t = &tenantState{}
		s.tenants[name] = t
		mTenants.Set(float64(len(s.tenants)))
	}
	t.refillLocked(now, s.opts.TenantRate, s.burst())
	return t
}

// admitTokens charges a tenant `instances` tokens without occupying a job
// slot — the admission path of the synchronous solve. 429 when the bucket
// runs dry, with a Retry-After derived from the refill rate.
func (s *Server) admitTokens(tenant string, instances int) *admitError {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		mRejectDraining.Inc()
		return &admitError{status: http.StatusServiceUnavailable, reason: "gateway is draining"}
	}
	t := s.tenantLocked(tenant, time.Now())
	need := float64(instances)
	if need > s.burst() {
		mRejectRate.Inc()
		return &admitError{
			status: http.StatusTooManyRequests,
			reason: fmt.Sprintf("request of %d instances exceeds the tenant burst capacity %.0f", instances, s.burst()),
		}
	}
	if t.tokens < need {
		mRejectRate.Inc()
		return &admitError{
			status:     http.StatusTooManyRequests,
			reason:     fmt.Sprintf("tenant %q instance-token bucket exhausted (%.1f of %d needed)", tenant, t.tokens, instances),
			retryAfter: retryAfterSeconds(need-t.tokens, s.opts.TenantRate),
		}
	}
	t.tokens -= need
	return nil
}

// admitJob runs the full async admission pipeline for a parsed job:
// tenant concurrency quota, instance-token quota, then a non-blocking
// reservation in the bounded queue. On success the job is registered and
// enqueued; every failure is a distinct 429 (or 503 while draining) with
// its own metric so overload is attributable.
func (s *Server) admitJob(job *Job) *admitError {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		mRejectDraining.Inc()
		return &admitError{status: http.StatusServiceUnavailable, reason: "gateway is draining"}
	}
	t := s.tenantLocked(job.Tenant, time.Now())
	if t.active >= s.opts.TenantActive {
		mRejectConcurrency.Inc()
		return &admitError{
			status:     http.StatusTooManyRequests,
			reason:     fmt.Sprintf("tenant %q already has %d active jobs (quota %d)", job.Tenant, t.active, s.opts.TenantActive),
			retryAfter: 1,
		}
	}
	need := float64(job.instances)
	if need > s.burst() {
		mRejectRate.Inc()
		return &admitError{
			status: http.StatusTooManyRequests,
			reason: fmt.Sprintf("job of %d instances exceeds the tenant burst capacity %.0f", job.instances, s.burst()),
		}
	}
	if t.tokens < need {
		mRejectRate.Inc()
		return &admitError{
			status:     http.StatusTooManyRequests,
			reason:     fmt.Sprintf("tenant %q instance-token bucket exhausted (%.1f of %d needed)", job.Tenant, t.tokens, job.instances),
			retryAfter: retryAfterSeconds(need-t.tokens, s.opts.TenantRate),
		}
	}
	// The queue send is non-blocking: a full queue must answer 429 now,
	// not park the request goroutine. It happens under mu so the queue
	// cannot be closed (drain) between the check above and the send.
	select {
	case s.queue <- job:
	default:
		mRejectQueue.Inc()
		return &admitError{
			status:     http.StatusTooManyRequests,
			reason:     fmt.Sprintf("job queue full (%d waiting)", cap(s.queue)),
			retryAfter: 1,
		}
	}
	t.tokens -= need
	t.active++
	s.jobs[job.ID] = job
	mJobsCreated.Inc()
	mJobsActive.Add(1)
	mQueueDepth.Add(1)
	return nil
}

// release returns a tenant's job slot when its job reaches a terminal
// state.
func (s *Server) release(tenant string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.tenants[tenant]; t != nil && t.active > 0 {
		t.active--
	}
	mJobsActive.Add(-1)
}

// newJobID allocates the next job ID.
func (s *Server) newJobID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextJob++
	return jobID(s.idBase, s.nextJob)
}

// retryAfterSeconds converts a token deficit into a whole-second hint.
func retryAfterSeconds(deficit, rate float64) int {
	if rate <= 0 {
		return 1
	}
	sec := int(math.Ceil(deficit / rate))
	if sec < 1 {
		sec = 1
	}
	return sec
}
