package chaos

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestSoakUnderCombinedFaults is the package's acceptance run: transport
// loss, duplication and delay against the ring plus RPC failures and lost
// responses against settlement, all from one seed. Every guarantee must
// hold: exact fault-free equilibrium, zero budget residual, verified
// chain.
func TestSoakUnderCombinedFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	opts, err := ParseSpec("seed=7,drop=0.15,dup=0.05,delayp=0.1,delaymax=15ms,rpcfail=0.1,rpclost=0.05,orgs=3,game=5")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	rep, err := Run(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + rep.String())
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
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
	if testing.Short() {
		t.Skip("chaos soak")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := Run(ctx, Options{Orgs: 3, GameSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Faults.Total() != 0 {
		t.Errorf("fault-free plan injected %d faults", rep.Faults.Total())
	}
}

func TestParseSpec(t *testing.T) {
	opts, err := ParseSpec("seed=9,drop=0.2,orgs=5,game=3")
	if err != nil {
		t.Fatal(err)
	}
	if opts.Plan.Seed != 9 || opts.Plan.Drop != 0.2 {
		t.Errorf("fault keys not applied: %+v", opts.Plan)
	}
	if opts.Orgs != 5 || opts.GameSeed != 3 {
		t.Errorf("harness keys not applied: %+v", opts)
	}
	bt, err := ParseSpec("batch=1")
	if err != nil {
		t.Fatal(err)
	}
	if !bt.Batch {
		t.Errorf("batch key not applied: %+v", bt)
	}
	for _, bad := range []string{"orgs=1", "bogus=1", "drop=2", "seed", "batch=x"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
	// The shard-count, seal-pipeline and checkpoint-cadence keys went with
	// the knobs they set; the ring-timeout, suspicion, seal-cadence and
	// settle-deadline keys with the options that had one value in use.
	for _, removed := range []string{"shards=4", "shards=0", "pipeline=0", "pipeline=1", "snapevery=2", "snapevery=-1",
		"token=150ms", "suspect=4", "seal=10ms", "settle=90s"} {
		if _, err := ParseSpec(removed); err == nil || !strings.Contains(err.Error(), "unknown key") {
			t.Errorf("ParseSpec(%q) = %v, want an unknown-key error", removed, err)
		}
	}
	if _, err := ParseSpec(""); err != nil {
		t.Errorf("empty spec rejected: %v", err)
	}
}
