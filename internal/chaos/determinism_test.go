package chaos

import (
	"strings"
	"testing"
	"time"

	"tradefl/internal/faults"
	"tradefl/internal/obs"
	"tradefl/internal/verify"
)

// TestSeededSoakDeterministicUnderVerify is the acceptance run for the
// audit subsystem: two chaos soaks from the same Options, with the runtime
// invariant auditor enabled, must agree bit-for-bit on every seed-derived
// outcome and record zero violations.
func TestSeededSoakDeterministicUnderVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	a := verify.Enable()
	defer verify.Disable()

	opts := Options{
		Plan:     faults.Plan{Seed: 11, Drop: 0.1, Dup: 0.05, RPCFail: 0.05, RPCLost: 0.05},
		Orgs:     3,
		GameSeed: 5,
		Audit:    a,
	}
	r1 := soak(t, opts, 2*time.Minute)
	r2 := soak(t, opts, 2*time.Minute)

	if a.Checks() == 0 {
		t.Fatal("auditor ran no checks during the soaks — hooks not wired")
	}
	if a.Count() != 0 {
		t.Errorf("auditor recorded violations on clean soaks:\n%s", a.Summary())
	}
	if len(r1.Profile) != len(r2.Profile) {
		t.Fatalf("profile lengths differ: %d vs %d", len(r1.Profile), len(r2.Profile))
	}
	for i := range r1.Profile {
		if r1.Profile[i] != r2.Profile[i] {
			t.Errorf("org %d strategy differs between runs: %+v vs %+v", i, r1.Profile[i], r2.Profile[i])
		}
	}
	if r1.ProfileMatches != r2.ProfileMatches || r1.IsNash != r2.IsNash {
		t.Errorf("equilibrium verdicts differ: (%v,%v) vs (%v,%v)",
			r1.ProfileMatches, r1.IsNash, r2.ProfileMatches, r2.IsNash)
	}
	if r1.PotentialGap != r2.PotentialGap {
		t.Errorf("potential gaps differ: %g vs %g", r1.PotentialGap, r2.PotentialGap)
	}
	if r1.BudgetResidual != r2.BudgetResidual {
		t.Errorf("budget residuals differ: %d vs %d wei", r1.BudgetResidual, r2.BudgetResidual)
	}
	if r1.Settled != r2.Settled || r1.ChainVerified != r2.ChainVerified {
		t.Errorf("settlement outcomes differ: (%v,%v) vs (%v,%v)",
			r1.Settled, r1.ChainVerified, r2.Settled, r2.ChainVerified)
	}
}

// TestSeededSoakDeterministicTraceTopology extends the determinism
// contract to the observability layer: with tracing enabled, two soaks
// from the same seeded Options must produce bit-identical trace topologies —
// the same roots under the same hash-derived trace IDs. The plan carries
// message faults but no RPC faults: RPC retry counts depend on how many
// status polls interleave with the seeded fault stream, which is timing-
// dependent, while message drop/dup decisions are a pure function of the
// seed. One trace must also span the solver, the ring and the chain — the
// cross-component propagation the tracing layer exists for.
func TestSeededSoakDeterministicTraceTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	obs.EnableTracing(true)
	defer func() {
		obs.EnableTracing(false)
		obs.ResetTraces()
	}()

	run := func() []string {
		obs.ResetTraces()
		// Run reseeds the ID generator from the plan seed.
		soak(t, Options{Plan: faults.Plan{Seed: 11, Drop: 0.1, Dup: 0.05}, Orgs: 3, GameSeed: 5}, 2*time.Minute)
		return obs.TraceTopology()
	}

	t1 := run()
	t2 := run()
	if len(t1) == 0 {
		t.Fatal("soak recorded no trace roots with tracing enabled")
	}
	if len(t1) != len(t2) {
		t.Fatalf("trace topologies differ in size: %d vs %d roots", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Errorf("topology line %d differs between seeded runs:\n  %s\n  %s", i, t1[i], t2[i])
		}
	}

	// Cross-component check: group roots by trace ID and require one trace
	// whose roots span at least three components (chaos + ring + chain; the
	// solver spans live inside the chaos.run tree as children).
	components := map[string]map[string]bool{}
	for _, line := range t1 {
		name, trace, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed topology line %q", line)
		}
		comp, _, _ := strings.Cut(name, ".")
		if components[trace] == nil {
			components[trace] = map[string]bool{}
		}
		components[trace][comp] = true
	}
	best := 0
	for _, comps := range components {
		if len(comps) > best {
			best = len(comps)
		}
	}
	if best < 3 {
		t.Errorf("no trace spans ≥3 components (best %d): topology:\n%s", best, strings.Join(t1, "\n"))
	}
}
