package chain

import (
	"errors"
	"strings"
	"testing"
)

// TestSubmitTxBatchMixed admits a batch mixing every per-tx outcome: fresh
// admissions, an in-batch duplicate, a stale nonce, and a forged signature.
// Rejections are per-result, never a call error, and only the accepted txs
// seal.
func TestSubmitTxBatchMixed(t *testing.T) {
	f := newFixture(t, 3)
	a0, a1 := f.accounts[0], f.accounts[1]
	mk := func(acct *Account, nonce uint64, value Wei) Transaction {
		tx, err := NewTransaction(acct, nonce, FnDepositSubmit, nil, value)
		if err != nil {
			t.Fatal(err)
		}
		return *tx
	}
	good0, good1 := mk(a0, 0, 10), mk(a1, 0, 11)
	stale := mk(a0, 7, 12) // nonce gap: expected 1 after good0
	forged := mk(a1, 1, 13)
	forged.Sig[0] ^= 0xff

	batch := []Transaction{good0, good1, good0 /* duplicate */, stale, forged}
	results, err := f.bc.SubmitTxBatch(batch)
	if err != nil {
		t.Fatalf("SubmitTxBatch: %v", err)
	}
	if len(results) != len(batch) {
		t.Fatalf("got %d results, want %d", len(results), len(batch))
	}
	if !results[0].OK || results[0].Known || !results[1].OK || results[1].Known {
		t.Errorf("fresh admissions not OK: %+v %+v", results[0], results[1])
	}
	if !results[2].OK || !results[2].Known || !strings.Contains(results[2].Error, "pending") {
		t.Errorf("in-batch duplicate not a Known dedup hit: %+v", results[2])
	}
	if results[3].OK || !strings.Contains(results[3].Error, "bad nonce") {
		t.Errorf("stale nonce not rejected: %+v", results[3])
	}
	if results[4].OK || results[4].Error == "" {
		t.Errorf("forged signature not rejected: %+v", results[4])
	}
	b, err := f.bc.SealBlock()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Txs) != 2 {
		t.Fatalf("sealed %d txs, want the 2 accepted", len(b.Txs))
	}
	// Whole-batch retry after sealing: everything is a Known dedup hit.
	retry, err := f.bc.SubmitTxBatch([]Transaction{good0, good1})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range retry {
		if !r.OK || !r.Known || !strings.Contains(r.Error, "sealed at height 1") {
			t.Errorf("retry result %d not a sealed dedup hit: %+v", i, r)
		}
	}
	if res, err := f.bc.SubmitTxBatch(nil); err != nil || res != nil {
		t.Errorf("empty batch: %v %v, want nil nil", res, err)
	}
}

// TestSubmitTxBatchDurable pins the group-commit contract: a batch call on
// a WAL-backed chain returns only after every admitted tx is durable — the
// mempool survives an unclean reopen.
func TestSubmitTxBatchDurable(t *testing.T) {
	authority, accounts, params, alloc := fixtureParts(t, 3)
	dir := t.TempDir()
	bc, err := OpenDurable(dir, authority, params, alloc)
	if err != nil {
		t.Fatal(err)
	}
	var batch []Transaction
	for i, acct := range accounts {
		tx, err := NewTransaction(acct, 0, FnDepositSubmit, nil, Wei(10+i))
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, *tx)
	}
	results, err := bc.SubmitTxBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.OK {
			t.Fatalf("result %d rejected: %+v", i, r)
		}
	}
	// No clean close: recovery must rebuild the mempool from the WAL alone.
	rec, err := Recover(dir, authority)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.PendingCount(); got != len(batch) {
		t.Errorf("recovered %d pending txs, want %d", got, len(batch))
	}
	if _, err := rec.SealBlock(); err != nil {
		t.Fatal(err)
	}
	if err := rec.CloseDurable(); err != nil {
		t.Fatal(err)
	}
}

// TestDeadWALRefusesAdmission aborts a durable chain's WAL. Nothing can be
// acknowledged any more: SubmitTx fails, and SubmitTxBatch returns a call
// error and no results, for fresh txs and for a resubmission of a pending
// one (a dedup hit must not read as durable acceptance). The mempool does
// not move.
func TestDeadWALRefusesAdmission(t *testing.T) {
	f := newDurableFixture(t, 3)
	mk := func(idx int, value Wei) Transaction {
		tx, err := NewTransaction(f.accounts[idx], 0, FnDepositSubmit, nil, value)
		if err != nil {
			t.Fatal(err)
		}
		return *tx
	}
	pending := mk(0, 10)
	if err := f.bc.SubmitTx(pending); err != nil {
		t.Fatal(err)
	}
	if _, err := f.bc.WAL().Abort(); err != nil {
		t.Fatal(err)
	}
	before := f.bc.PendingCount()
	fresh := mk(1, 11)
	if err := f.bc.SubmitTx(fresh); !errors.Is(err, ErrWALAborted) {
		t.Errorf("SubmitTx on a dead WAL: %v, want ErrWALAborted", err)
	}
	if err := f.bc.SubmitTx(pending); !errors.Is(err, ErrWALAborted) || IsAlreadyKnown(err) {
		t.Errorf("SubmitTx of a pending tx on a dead WAL: %v, want ErrWALAborted and no dedup hit", err)
	}
	for name, batch := range map[string][]Transaction{
		"fresh":                {fresh, mk(2, 12)},
		"pending resubmission": {pending},
	} {
		results, err := f.bc.SubmitTxBatch(batch)
		if !errors.Is(err, ErrWALAborted) || results != nil {
			t.Errorf("%s batch on a dead WAL: results %+v, err %v; want no results and ErrWALAborted", name, results, err)
		}
	}
	if got := f.bc.PendingCount(); got != before {
		t.Errorf("pending count moved on a dead WAL: %d -> %d", before, got)
	}
}

// TestSubmitTxBatchRPC round-trips a batch through the JSON-RPC server.
func TestSubmitTxBatchRPC(t *testing.T) {
	f := newFixture(t, 3)
	srv, err := NewServer(f.bc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve() }()
	defer func() { _ = srv.Close(); <-done }()
	client := NewClient(srv.Addr())

	var batch []Transaction
	for i, acct := range f.accounts {
		tx, err := NewTransaction(acct, 0, FnDepositSubmit, nil, Wei(20+i))
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, *tx)
	}
	results, err := client.SubmitTxBatch(batch)
	if err != nil {
		t.Fatalf("client batch: %v", err)
	}
	if len(results) != len(batch) {
		t.Fatalf("got %d results, want %d", len(results), len(batch))
	}
	for i, r := range results {
		if !r.OK || r.Known {
			t.Errorf("result %d: %+v, want fresh OK", i, r)
		}
	}
	if empty, err := client.SubmitTxBatch(nil); err != nil || empty != nil {
		t.Errorf("empty client batch: %v %v", empty, err)
	}
	if got := f.bc.PendingCount(); got != len(batch) {
		t.Errorf("server pool holds %d, want %d", got, len(batch))
	}
	// Retry over RPC is the idempotent dedup path.
	retry, err := client.SubmitTxBatch(batch[:1])
	if err != nil {
		t.Fatal(err)
	}
	if !retry[0].OK || !retry[0].Known {
		t.Errorf("RPC retry: %+v, want Known dedup hit", retry[0])
	}
}

// TestBatchPerTxEquivalence seals the same workload submitted per-tx and
// batched: the sealed blocks must be byte-identical — batching is purely a
// submission-cost optimization.
func TestBatchPerTxEquivalence(t *testing.T) {
	perTx := newFixture(t, 6)
	batched := newFixture(t, 6)
	var txs []Transaction
	for i, acct := range perTx.accounts {
		tx, err := NewTransaction(acct, 0, FnDepositSubmit, nil, MinDeposit(perTx.params, i, 5e9))
		if err != nil {
			t.Fatal(err)
		}
		txs = append(txs, *tx)
	}
	for _, tx := range txs {
		if err := perTx.bc.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := batched.bc.SubmitTxBatch(txs); err != nil {
		t.Fatal(err)
	}
	b1, err := perTx.bc.SealBlock()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := batched.bc.SealBlock()
	if err != nil {
		t.Fatal(err)
	}
	h1, err := b1.HeaderHash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := b2.HeaderHash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("batched block diverged from per-tx block:\n%s\n%s", h1, h2)
	}
}
