package chain

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The admission witness lets VerifyChain skip a transaction's ed25519 check
// only when the transaction's recomputed hash equals the hash admission
// verified. These tests play the adversaries that contract has to survive:
// a sealer holding the authority key, a damaged witness, and every path
// that rebuilds a chain from bytes.

// settledChain settles an n-member plan in four blocks on an in-memory
// chain.
func settledChain(t *testing.T, n int) (*Blockchain, *settlePlan) {
	t.Helper()
	plan := buildSettlePlan(t, n)
	bc, err := NewBlockchain(plan.authority, plan.params, plan.alloc)
	if err != nil {
		t.Fatal(err)
	}
	settleStaged(t, bc, plan.stages())
	return bc, plan
}

// auditCost runs VerifyChain and reports how many transaction signatures
// it verified.
func auditCost(bc *Blockchain) (int64, error) {
	_, before := sigVerifications()
	err := bc.VerifyChain()
	_, after := sigVerifications()
	return after - before, err
}

// wantTxFailure requires err to be VerifyChain's transaction-check error
// for the given position — not a seal, link, term or Merkle failure.
func wantTxFailure(t *testing.T, err error, where string) {
	t.Helper()
	if err == nil {
		t.Fatal("VerifyChain accepted a tampered, re-sealed chain")
	}
	if errors.Is(err, ErrBadSeal) || errors.Is(err, ErrBrokenLink) || errors.Is(err, ErrStaleTerm) ||
		!strings.HasPrefix(err.Error(), where+":") {
		t.Fatalf("VerifyChain failed with %q, want the transaction check at %s", err, where)
	}
}

// TestWitnessMaliciousSealer: whoever holds the authority key can rewrite
// a sealed transaction and re-seal, so seals, links and Merkle roots all
// verify. The witness still names the bytes admission verified, the
// rewritten transaction hashes differently, and the full signature check
// runs and fails — for every field the hash covers.
func TestWitnessMaliciousSealer(t *testing.T) {
	const height, idx = 2, 1 // a contributionSubmit: every field populated
	for _, tc := range []struct {
		name   string
		mutate func(tx *Transaction, other Transaction)
	}{
		{"Value", func(tx *Transaction, _ Transaction) { tx.Value++ }},
		{"Nonce", func(tx *Transaction, _ Transaction) { tx.Nonce++ }},
		{"Fn", func(tx *Transaction, _ Transaction) { tx.Fn = FnProfileRecord }},
		{"Args", func(tx *Transaction, _ Transaction) { tx.Args = json.RawMessage(`{"d":1,"f":5e9}`) }},
		{"From", func(tx *Transaction, other Transaction) { tx.From = other.From }},
		{"PubKey", func(tx *Transaction, other Transaction) { tx.PubKey = other.PubKey }},
		{"Sig", func(tx *Transaction, _ Transaction) {
			tx.Sig = append([]byte(nil), tx.Sig...)
			tx.Sig[17] ^= 0x04
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bc, _ := settledChain(t, 4)
			if n, err := auditCost(bc); err != nil || n != 0 {
				t.Fatalf("honest chain: %d audit verifications, err %v", n, err)
			}
			// The helper alone (no mutation) leaves a chain that verifies:
			// what fails below is the transaction check and nothing else.
			if err := bc.resealFrom(height, func(*Block) {}); err != nil {
				t.Fatal(err)
			}
			if n, err := auditCost(bc); err != nil || n != 0 {
				t.Fatalf("re-sealed honest chain: %d audit verifications, err %v", n, err)
			}
			err := bc.resealFrom(height, func(b *Block) { tc.mutate(&b.Txs[idx], b.Txs[idx+1]) })
			if err != nil {
				t.Fatal(err)
			}
			n, err := auditCost(bc)
			wantTxFailure(t, err, "block 2 tx 1")
			if n != 1 {
				t.Errorf("audit verified %d signatures, want exactly the rewritten one", n)
			}
		})
	}
}

// TestWitnessDamagedFallsBack: a witness that is missing, short, or names
// other hashes buys nothing — the audit verifies every signature it does
// not cover, an honest chain still verifies, and a tampered one still fails.
func TestWitnessDamagedFallsBack(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(w []string) []string
		want int64 // audit verifications on the 4-tx block
	}{
		{"dropped", func([]string) []string { return nil }, 4},
		{"truncated", func(w []string) []string { return w[:len(w)-1] }, 4},
		{"padded", func(w []string) []string { return append(w, w[0]) }, 4},
		{"swapped", func(w []string) []string { w[0], w[1] = w[1], w[0]; return w }, 2},
		{"foreign", func(w []string) []string { w[3] = strings.Repeat("0", len(w[3])); return w }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bc, _ := settledChain(t, 4)
			bc.setWitness(1, tc.edit)
			n, err := auditCost(bc)
			if err != nil {
				t.Fatalf("honest chain with a %s witness: %v", tc.name, err)
			}
			if n != tc.want {
				t.Errorf("audit verified %d signatures, want %d", n, tc.want)
			}
			if err := bc.resealFrom(1, func(b *Block) { b.Txs[0].Value++ }); err != nil {
				t.Fatal(err)
			}
			_, err = auditCost(bc)
			wantTxFailure(t, err, "block 1 tx 0")
		})
	}
}

// TestWitnessReplayPaths: recovery, point-in-time views and a standby all
// rebuild their chain by re-admitting every transaction through
// SubmitTx, so the chains they produce carry their own witnesses and audit
// without a single ed25519 call.
func TestWitnessReplayPaths(t *testing.T) {
	plan := buildSettlePlan(t, 4)
	dir := t.TempDir()
	primary, err := OpenDurable(dir, plan.authority, plan.params, plan.alloc)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := NewBlockchain(plan.authority, plan.params, plan.alloc)
	if err != nil {
		t.Fatal(err)
	}
	// Four blocks: recovery and the point-in-time view replay the log. The
	// follower sees what a standby sees: each record as JSON off the wire.
	for _, txs := range plan.stages() {
		if _, err := primary.SubmitTxBatch(txs); err != nil {
			t.Fatal(err)
		}
		blk, err := primary.SealBlock()
		if err != nil {
			t.Fatal(err)
		}
		for i := range txs {
			if err := follower.SubmitTx(jsonRoundTrip(t, txs[i])); err != nil {
				t.Fatal(err)
			}
		}
		wire := jsonRoundTrip(t, *blk)
		if err := follower.ApplySealedBlock(&wire); err != nil {
			t.Fatalf("standby apply block %d: %v", blk.Height, err)
		}
	}
	view, err := RecoverAt(dir, plan.authority, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	recovered, err := Recover(dir, plan.authority)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.CloseDurable()
	for _, tc := range []struct {
		name   string
		bc     *Blockchain
		height uint64
	}{
		{"primary", primary, 4}, {"recovered", recovered, 4}, {"pitr", view, 3},
		{"standby", follower, 4},
	} {
		if got := tc.bc.Height(); got != tc.height {
			t.Errorf("%s: height %d, want %d", tc.name, got, tc.height)
		}
		if n, err := auditCost(tc.bc); err != nil || n != 0 {
			t.Errorf("%s: %d audit verifications, err %v; want 0, nil", tc.name, n, err)
		}
	}
}

func jsonRoundTrip[T any](t *testing.T, v T) T {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out T
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWitnessNeverSerialized: the witness is evidence about this process's
// own admission, so no encoding of a block may carry it — not the block's
// JSON, not its WAL record, not an RPC reply. A decoded block is audited in
// full.
func TestWitnessNeverSerialized(t *testing.T) {
	f := newDurableFixture(t, 2)
	srv, err := NewServer(f.bc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	defer func() {
		if err := errors.Join(srv.Close(), <-served); err != nil {
			t.Error(err)
		}
	}()
	client := NewClient(srv.Addr())

	f.submit(t, 0, FnDepositSubmit, nil, MinDeposit(f.params, 0, 5e9))
	f.submit(t, 1, FnDepositSubmit, nil, MinDeposit(f.params, 1, 5e9))
	sealedOverRPC, err := client.SealBlock()
	if err != nil {
		t.Fatal(err)
	}
	installed, err := f.bc.BlockAt(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(installed.admitted) != 2 {
		t.Fatalf("installed block carries a %d-entry witness, want 2", len(installed.admitted))
	}

	raw, err := json.Marshal(installed)
	if err != nil {
		t.Fatal(err)
	}
	for _, hash := range installed.admitted {
		// Each hash appears exactly once: in its receipt.
		if got := bytes.Count(raw, []byte(hash)); got != 1 {
			t.Errorf("block JSON mentions tx hash %s %d times, want 1 (the receipt)", hash, got)
		}
	}
	fetched := new(Block)
	if err := client.Call(MethodGetBlock, uint64(1), fetched); err != nil {
		t.Fatal(err)
	}
	decoded := map[string]*Block{
		"json":          new(Block),
		"rpc sealBlock": sealedOverRPC,
		"rpc getBlock":  fetched,
	}
	if err := json.Unmarshal(raw, decoded["json"]); err != nil {
		t.Fatal(err)
	}
	for _, rec := range scanLog(t, filepath.Join(f.dir, logName)) {
		if rec.Kind == recBlock {
			decoded["wal"] = rec.Block
		}
	}
	if decoded["wal"] == nil {
		t.Fatal("no block record in the log")
	}
	for name, b := range decoded {
		if b.admitted != nil {
			t.Errorf("%s: decoded block carries a witness", name)
		}
		if err := sameBlock(b, installed); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestWitnessCounterPinsSettlement pins the headline: one N=32 settlement
// verifies each of its 129 signatures exactly once, at admission; the audit
// adds none, and exactly one when a sealer rewrites one transaction.
func TestWitnessCounterPinsSettlement(t *testing.T) {
	admit0, audit0 := sigVerifications()
	bc, plan := settledChain(t, 32)
	if err := bc.VerifyChain(); err != nil {
		t.Fatal(err)
	}
	admit, audit := sigVerifications()
	if got := admit - admit0; got != int64(len(plan.txs)) || len(plan.txs) != 129 {
		t.Errorf("admission verified %d signatures for %d txs, want 129", got, len(plan.txs))
	}
	if got := audit - audit0; got != 0 {
		t.Errorf("audit verified %d signatures on an honestly admitted chain, want 0", got)
	}
	if err := bc.resealFrom(4, func(b *Block) { b.Txs[40].Nonce += 2 }); err != nil {
		t.Fatal(err)
	}
	n, err := auditCost(bc)
	wantTxFailure(t, err, "block 4 tx 40")
	if n != 1 {
		t.Errorf("audit verified %d signatures after one rewrite, want 1", n)
	}
}

// TestWitnessAuditBesideSealing runs audits while blocks are admitted and
// sealed: VerifyChain walks a snapshot of the block slice outside bc.mu, so
// under -race this is the check that the walk and installBlock's append
// never touch the same memory.
func TestWitnessAuditBesideSealing(t *testing.T) {
	plan := buildSettlePlan(t, 8)
	bc, err := NewBlockchain(plan.authority, plan.params, plan.alloc)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := bc.VerifyChain(); err != nil {
					t.Errorf("audit beside sealing: %v", err)
					return
				}
			}
		}()
	}
	// One block per transaction: 33 appends, several reallocations of the
	// block slice under the auditors' feet.
	for i := range plan.txs {
		if err := bc.SubmitTx(plan.txs[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := bc.SealBlock(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if n, err := auditCost(bc); err != nil || n != 0 {
		t.Errorf("final audit: %d verifications, err %v", n, err)
	}
}
