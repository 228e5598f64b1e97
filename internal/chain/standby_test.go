package chain

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tradefl/internal/faults"
	"tradefl/internal/transport"
)

// TestFencingRejectsStaleTerm: a promoted chain refuses blocks sealed
// under the old term — the revived-primary fork case.
func TestFencingRejectsStaleTerm(t *testing.T) {
	primary := newDurableFixture(t, 2)
	follower := newDurableFixture(t, 2) // same seed, same genesis

	// Mirror one block onto the follower through the replication path.
	primary.submit(t, 0, FnDepositSubmit, nil, MinDeposit(primary.params, 0, 5e9))
	tx := primary.bc.pool[0]
	b1, err := primary.bc.SealBlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.bc.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	if err := follower.bc.ApplySealedBlock(b1); err != nil {
		t.Fatalf("replicating a current-term block: %v", err)
	}

	// Failover: follower promotes to term 1; the deposed primary keeps
	// sealing at term 0.
	if term, err := follower.bc.Promote(); err != nil || term != 1 {
		t.Fatalf("promote: term=%d err=%v", term, err)
	}
	primary.submit(t, 1, FnDepositSubmit, nil, MinDeposit(primary.params, 1, 5e9))
	stale, err := primary.bc.SealBlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.bc.ApplySealedBlock(stale); !errors.Is(err, ErrStaleTerm) {
		t.Fatalf("stale-term block: err=%v, want ErrStaleTerm", err)
	}
	if follower.bc.Height() != 1 {
		t.Fatalf("fenced follower height %d, want 1 (no fork)", follower.bc.Height())
	}

	// The promoted follower seals at term 1 and its own history verifies,
	// term monotonicity included.
	b2, err := follower.bc.SealBlock()
	if err != nil {
		t.Fatal(err)
	}
	if b2.Term != 1 {
		t.Fatalf("post-promotion block term %d, want 1", b2.Term)
	}
	if err := follower.bc.VerifyChain(); err != nil {
		t.Fatal(err)
	}
	// Term survives the follower's own crash.
	follower.crash(t)
	if follower.bc.Term() != 1 {
		t.Fatalf("recovered term %d, want 1", follower.bc.Term())
	}
}

// TestStandbyFailoverUnderCrashWindow runs the full replication + failover
// loop over the transport fabric with a faults-plan crash window taking
// the primary off the network: the standby tails the WAL stream, promotes
// itself when the stream goes silent, seals post-failover, and fences off
// the revived primary.
func TestStandbyFailoverUnderCrashWindow(t *testing.T) {
	primary := newDurableFixture(t, 2)
	follower := newDurableFixture(t, 2)

	hub := transport.NewHub()
	pEnd, err := hub.Endpoint("primary", 64)
	if err != nil {
		t.Fatal(err)
	}
	sEnd, err := hub.Endpoint("standby", 64)
	if err != nil {
		t.Fatal(err)
	}
	// The crash window fires 300ms in and keeps the primary down for the
	// rest of the test; its replication sends then fail, which is exactly
	// the silence the standby watches for.
	inj, err := faults.NewInjector(faults.Plan{
		Seed:    99,
		Crashes: []faults.CrashWindow{{Endpoint: "primary", After: 300 * time.Millisecond, Down: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReplicator(primary.bc, inj.Wrap(pEnd), "standby"); err != nil {
		t.Fatal(err)
	}
	sb := NewStandby(follower.bc, sEnd)
	type runResult struct {
		promoted bool
		err      error
	}
	resCh := make(chan runResult, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	go func() {
		promoted, err := sb.Run(ctx)
		resCh <- runResult{promoted, err}
	}()

	// Drive the primary until its crash window fires: submit + seal so a
	// steady record stream reaches the standby.
	deadline := time.Now().Add(2 * time.Second)
	sealed := 0
	for time.Now().Before(deadline) {
		nonce := primary.bc.Nonce(primary.accounts[sealed%2].Address())
		tx, err := NewTransaction(primary.accounts[sealed%2], nonce, FnDepositSubmit, nil, MinDeposit(primary.params, sealed%2, 5e9)/8+Wei(sealed))
		if err != nil {
			t.Fatal(err)
		}
		if err := primary.bc.SubmitTx(*tx); err != nil {
			t.Fatal(err)
		}
		if _, err := primary.bc.SealBlock(); err != nil {
			t.Fatal(err)
		}
		sealed++
		time.Sleep(50 * time.Millisecond)
	}

	res := <-resCh
	if res.err != nil {
		t.Fatalf("standby run: %v", res.err)
	}
	if !res.promoted {
		t.Fatal("standby never promoted despite primary crash window")
	}
	if follower.bc.Term() != 1 {
		t.Fatalf("standby term %d after promotion, want 1", follower.bc.Term())
	}
	if follower.bc.Height() == 0 {
		t.Fatal("standby replicated no blocks before failover")
	}

	// The promoted standby seals at least one block at the new term...
	b, err := follower.bc.SealBlock()
	if err != nil {
		t.Fatal(err)
	}
	if b.Term != 1 {
		t.Fatalf("post-failover block term %d, want 1", b.Term)
	}
	if err := follower.bc.VerifyChain(); err != nil {
		t.Fatal(err)
	}

	// ...and the revived primary cannot fork it: its next block (old term)
	// is fenced off.
	nonce := primary.bc.Nonce(primary.accounts[0].Address())
	tx, err := NewTransaction(primary.accounts[0], nonce, FnDepositSubmit, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.bc.SubmitTx(*tx); err != nil {
		t.Fatal(err)
	}
	revived, err := primary.bc.SealBlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.bc.ApplySealedBlock(revived); !errors.Is(err, ErrStaleTerm) {
		t.Fatalf("revived primary block: err=%v, want ErrStaleTerm", err)
	}
	inj.Close()
}

// TestReplicatorSendsLoggedPayload: the replication stream carries, record
// for record, the payload bytes the primary's log holds after its genesis
// record, not a second encoding of them.
func TestReplicatorSendsLoggedPayload(t *testing.T) {
	primary := newDurableFixture(t, 2)
	hub := transport.NewHub()
	pEnd, err := hub.Endpoint("primary", 64)
	if err != nil {
		t.Fatal(err)
	}
	sEnd, err := hub.Endpoint("standby", 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReplicator(primary.bc, pEnd, "standby"); err != nil {
		t.Fatal(err)
	}
	primary.submit(t, 0, FnDepositSubmit, nil, MinDeposit(primary.params, 0, 5e9))
	primary.submit(t, 1, FnDepositSubmit, nil, MinDeposit(primary.params, 1, 5e9))
	if _, err := primary.bc.SealBlock(); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.bc.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := primary.bc.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(primary.dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var logged [][]byte
	if _, err := scanFrames(f, func(p []byte) error {
		logged = append(logged, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	logged = logged[1:] // the genesis record is written before replication starts
	if len(logged) != 4 {
		t.Fatalf("log holds %d records after genesis, want 4 (2 txs, a block, a term)", len(logged))
	}
	for i, want := range logged {
		select {
		case msg := <-sEnd.Receive():
			if msg.Type != MsgWALRecord || !bytes.Equal(msg.Payload, want) {
				t.Fatalf("replicated record %d: type %q payload %s, want the logged %s", i, msg.Type, msg.Payload, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("replicated record %d never arrived", i)
		}
	}
}
