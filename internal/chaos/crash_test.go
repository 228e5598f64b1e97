package chaos

import (
	"context"
	"testing"
	"time"
)

// TestCrashRestartSoak is the durability acceptance run: settlement on a
// WAL-backed chain that is killed and recovered on a seeded schedule,
// with RPC faults layered on top so the outage windows overlap ordinary
// transport failures. Every recovery must reproduce the durable prefix
// exactly, the wei-exact settlement invariants must still hold on the
// final incarnation, and a point-in-time view must rebuild.
func TestCrashRestartSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	opts, err := ParseSpec("seed=7,crashcycles=3,crashmin=25ms,crashmax=70ms,rpcfail=0.05,orgs=3,game=5")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	rep, err := Run(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + rep.String())
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if !rep.Durable {
		t.Error("crash soak did not run on a durable chain")
	}
	if rep.Crashes == 0 {
		t.Error("crash soak performed no kill/recover cycles")
	}
}

// TestCrashSoakBatched is the batched durability run: submission through
// SubmitTxBatch while the validator is killed and recovered mid-settlement.
// The acceptance bar is unchanged — exact durable-prefix reproduction and
// wei-exact settlement.
func TestCrashSoakBatched(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	opts, err := ParseSpec("seed=13,crashcycles=3,crashmin=25ms,crashmax=70ms,orgs=3,game=5,batch=1")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	rep, err := Run(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + rep.String())
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if !rep.RecoveredExact {
		t.Error("a recovery did not reproduce the durable prefix")
	}
}

// TestCrashSoakForcedCycle pins the zero-schedule fallback: even when
// settlement outruns every scheduled kill (or none were scheduled to fire
// in time), the soak must still force at least one crash/recover cycle so
// a green run always certifies recovery.
func TestCrashSoakForcedCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	opts, err := ParseSpec("seed=11,crashcycles=1,crashmin=2m,crashmax=2m,orgs=3,game=5")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	rep, err := Run(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Crashes == 0 {
		t.Error("forced post-settlement cycle did not fire")
	}
	if !rep.RecoveredExact || !rep.PITRVerified {
		t.Errorf("recovery exactness=%v PITR=%v", rep.RecoveredExact, rep.PITRVerified)
	}
}
