package chaos

import (
	"testing"
	"time"

	"tradefl/internal/faults"
)

// TestCrashRestartSoak is the durability acceptance run: settlement on a
// WAL-backed chain that is killed and recovered on a seeded schedule,
// with RPC faults layered on top so the outage windows overlap ordinary
// transport failures. Every recovery must reproduce the durable prefix
// exactly, the wei-exact settlement invariants must still hold on the
// final incarnation, and a point-in-time view must rebuild.
func TestCrashRestartSoak(t *testing.T) {
	rep := soak(t, Options{
		Plan:        faults.Plan{Seed: 7, RPCFail: 0.05},
		Orgs:        3,
		GameSeed:    5,
		CrashCycles: 3,
		CrashMin:    25 * time.Millisecond,
		CrashMax:    70 * time.Millisecond,
	}, 4*time.Minute)
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
	rep := soak(t, Options{
		Plan:        faults.Plan{Seed: 13},
		Orgs:        3,
		GameSeed:    5,
		CrashCycles: 3,
		CrashMin:    25 * time.Millisecond,
		CrashMax:    70 * time.Millisecond,
		Batch:       true,
	}, 4*time.Minute)
	if !rep.RecoveredExact {
		t.Error("a recovery did not reproduce the durable prefix")
	}
}

// TestCrashSoakBatchedRPCFaults puts the two previous runs together: the
// batch lane's four SubmitTxBatch stages through an RPC link that fails 5%
// of round trips, while the validator is killed and recovered three times,
// so kills and transport failures both land on multi-tx group commits.
func TestCrashSoakBatchedRPCFaults(t *testing.T) {
	rep := soak(t, Options{
		Plan:        faults.Plan{Seed: 7, RPCFail: 0.05},
		Orgs:        3,
		GameSeed:    5,
		CrashCycles: 3,
		CrashMin:    25 * time.Millisecond,
		CrashMax:    70 * time.Millisecond,
		Batch:       true,
	}, 4*time.Minute)
	if rep.Crashes == 0 {
		t.Error("crash soak performed no kill/recover cycles")
	}
}

// TestCrashSoakForcedCycle pins the zero-schedule fallback: even when
// settlement outruns every scheduled kill (or none were scheduled to fire
// in time), the soak must still force at least one crash/recover cycle so
// a green run always certifies recovery.
func TestCrashSoakForcedCycle(t *testing.T) {
	rep := soak(t, Options{
		Plan:        faults.Plan{Seed: 11},
		Orgs:        3,
		GameSeed:    5,
		CrashCycles: 1,
		CrashMin:    2 * time.Minute,
		CrashMax:    2 * time.Minute,
	}, 3*time.Minute)
	if rep.Crashes == 0 {
		t.Error("forced post-settlement cycle did not fire")
	}
	if !rep.RecoveredExact || !rep.PITRVerified {
		t.Errorf("recovery exactness=%v PITR=%v", rep.RecoveredExact, rep.PITRVerified)
	}
}
