package serve

import (
	"fmt"
	"testing"
	"time"
)

// TestTenantTableIsSwept: the tenant table is keyed by a client-chosen
// header. Three thousand tenants that each solve once and never return must
// not leave ten thousand entries behind, while a tenant that still holds a
// job or owes tokens keeps its state, tokens intact, across every sweep.
func TestTenantTableIsSwept(t *testing.T) {
	s := testServer(t, Options{TenantRate: 64}) // a bucket of 256
	now := time.Unix(1_700_000_000, 0)
	s.mu.Lock()
	defer s.mu.Unlock()

	busy := s.tenantLocked("busy", now)
	busy.active = 1 // a queued or running job
	drained := s.tenantLocked("drained", now)
	drained.tokens = 0 // a bucket that needs four seconds to refill

	peak := 0
	for i := 0; i < 3_000; i++ {
		// One-shot tenants a millisecond apart: each spends a token, which
		// refills in 1/64 s, so about sixteen are distinguishable from new
		// at any moment.
		now = now.Add(time.Millisecond)
		s.tenantLocked(fmt.Sprintf("one-shot-%d", i), now).tokens--
		peak = max(peak, len(s.tenants))
	}
	if peak > 2*minTenantSweep {
		t.Errorf("table peaked at %d tenants, want at most %d", peak, 2*minTenantSweep)
	}
	if got := mTenants.Value(); got != float64(len(s.tenants)) {
		t.Errorf("tradefl_serve_tenants = %v with %d tenants in the table", got, len(s.tenants))
	}

	if s.tenants["busy"] != busy || busy.active != 1 {
		t.Error("a tenant with an active job was swept")
	}
	// Three seconds on, "drained" is still a second short of full: it
	// survived every sweep, and they left its bucket alone.
	if s.tenants["drained"] != drained {
		t.Fatal("a tenant with a part-drained bucket was swept")
	}
	if drained.tokens != 0 || !drained.last.Equal(time.Unix(1_700_000_000, 0)) {
		t.Errorf("sweeps changed a surviving tenant's bucket: %.2f tokens, last %v", drained.tokens, drained.last)
	}
	if got := s.tenantLocked("drained", now); got != drained || got.tokens != 192 {
		t.Errorf("refill after the sweeps: %.2f tokens, want 192 (three seconds at 64/s)", got.tokens)
	}

	// Once idle and refilled, both are indistinguishable from new tenants
	// and go.
	busy.active = 0
	now = now.Add(time.Minute)
	for i := 0; len(s.tenants) < s.tenantSweepAt; i++ {
		now = now.Add(time.Millisecond)
		s.tenantLocked(fmt.Sprintf("filler-%d", i), now).tokens--
	}
	s.tenantLocked("one-more", now.Add(time.Millisecond))
	if s.tenants["busy"] != nil || s.tenants["drained"] != nil {
		t.Error("idle tenants with full buckets outlived a sweep")
	}
}
