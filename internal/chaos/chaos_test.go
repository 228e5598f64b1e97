package chaos

import (
	"testing"
	"time"

	"tradefl/internal/faults"
)

// TestSoakUnderCombinedFaults is the package's acceptance run: transport
// loss, duplication and delay against the ring plus RPC failures and lost
// responses against settlement, all from one seed. Every guarantee must
// hold: exact fault-free equilibrium, zero budget residual, verified
// chain.
func TestSoakUnderCombinedFaults(t *testing.T) {
	rep := soak(t, Options{
		Plan: faults.Plan{
			Seed: 7, Drop: 0.15, Dup: 0.05, DelayProb: 0.1, DelayMax: 15 * time.Millisecond,
			RPCFail: 0.1, RPCLost: 0.05,
		},
		Orgs: 3, GameSeed: 5,
	}, 3*time.Minute)
	if rep.Faults.Total() == 0 {
		t.Error("soak injected no faults at all")
	}
	if rep.Faults.RPCFailures == 0 && rep.Faults.RPCLost == 0 {
		t.Error("soak exercised no RPC faults")
	}
}

// TestFaultFreeSoak pins the baseline: with an empty plan the soak must
// pass trivially and count zero faults.
func TestFaultFreeSoak(t *testing.T) {
	rep := soak(t, Options{Orgs: 3, GameSeed: 5}, 2*time.Minute)
	if rep.Faults.Total() != 0 {
		t.Errorf("fault-free plan injected %d faults", rep.Faults.Total())
	}
}
