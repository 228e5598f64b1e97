package chain

import (
	"strings"
	"sync"
	"testing"
	"time"
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

// TestBatchSubmitterCoalesce drives concurrent Submit calls through the
// micro-batcher: they must coalesce into fewer SubmitTxBatch calls while
// every caller still gets its own verdict.
func TestBatchSubmitterCoalesce(t *testing.T) {
	f := newFixture(t, 6)
	counting := &countingBatcher{dst: f.bc}
	bs := NewBatchSubmitter(counting, BatchOptions{MaxBatch: 6, Linger: 50 * time.Millisecond})

	var wg sync.WaitGroup
	errs := make([]error, 6)
	for i := range f.accounts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx, err := NewTransaction(f.accounts[i], 0, FnDepositSubmit, nil, Wei(30+i))
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = bs.Submit(*tx)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("submit %d: %v", i, err)
		}
	}
	if got := f.bc.PendingCount(); got != 6 {
		t.Errorf("pool holds %d txs, want 6", got)
	}
	counting.mu.Lock()
	calls := counting.calls
	counting.mu.Unlock()
	if calls >= 6 {
		t.Errorf("no coalescing: %d batch calls for 6 submits", calls)
	}
	// A per-tx rejection surfaces as the caller's own error.
	bad, err := NewTransaction(f.accounts[0], 9, FnDepositSubmit, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if serr := bs.Submit(*bad); serr == nil || !strings.Contains(serr.Error(), "bad nonce") {
		t.Errorf("rejected tx through batcher: %v, want bad nonce", serr)
	}
	// A duplicate is an idempotent success.
	dup, err := NewTransaction(f.accounts[0], 0, FnDepositSubmit, nil, 30)
	if err != nil {
		t.Fatal(err)
	}
	if serr := bs.Submit(*dup); serr != nil {
		t.Errorf("duplicate through batcher: %v, want nil (Known)", serr)
	}
	bs.Close()
	if serr := bs.Submit(*dup); serr == nil || !strings.Contains(serr.Error(), "closed") {
		t.Errorf("submit after Close: %v", serr)
	}
}

type countingBatcher struct {
	dst   TxBatchSubmitter
	mu    sync.Mutex
	calls int
}

func (c *countingBatcher) SubmitTxBatch(txs []Transaction) ([]SubmitResult, error) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return c.dst.SubmitTxBatch(txs)
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
