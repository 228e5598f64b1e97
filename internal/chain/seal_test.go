package chain

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

// TestSealedBlockReadableOnlyWhenDurable parks the WAL syncer in a
// durability observer, so a block record sits queued behind it, and reads
// the chain while SealBlock waits for that commit: no height, block,
// receipt or balance of the block may show. Abort then kills the log under
// the waiting seal: SealBlock returns the error and installs nothing, the
// ledger reads the pre-block state, and the reopened directory holds
// exactly what was read.
func TestSealedBlockReadableOnlyWhenDurable(t *testing.T) {
	f := newDurableFixture(t, 3)
	w := f.bc.WAL()
	// The syncer parks after acknowledging the batch's last record.
	park, release := make(chan struct{}), make(chan struct{})
	payer := f.accounts[1].Address()
	w.OnDurable(func(ev DurableEvent) {
		if ev.Kind == DurableTx && ev.Tx.From == payer {
			close(park)
			<-release
		}
	})
	deposit, err := NewTransaction(f.accounts[0], 0, FnDepositSubmit, nil, MinDeposit(f.params, 0, 5e9))
	if err != nil {
		t.Fatal(err)
	}
	pay, err := NewTransaction(f.accounts[1], 0, FnTransfer, TransferArgs{To: f.accounts[2].Address()}, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := f.bc.SubmitTxBatch([]Transaction{*deposit, *pay}); err != nil || !res[0].OK || !res[1].OK {
		t.Fatalf("submit: %+v, %v", res, err)
	}
	<-park
	before := make([]Wei, len(f.accounts))
	for i, a := range f.accounts {
		before[i] = f.bc.Balance(a.Address())
	}

	sealed := make(chan error, 1)
	go func() { _, err := f.bc.SealBlock(); sealed <- err }()
	deadline := time.Now().Add(10 * time.Second)
	for queued := 0; queued == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the block record never reached the WAL queue")
		}
		time.Sleep(time.Millisecond)
		w.mu.Lock()
		queued = len(w.queue)
		w.mu.Unlock()
	}
	// Give a seal that installs before its commit the time to do so.
	time.Sleep(20 * time.Millisecond)
	hash, err := deposit.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if r, err := f.bc.ReceiptByHash(hash); err == nil {
		t.Errorf("receipt %+v readable while its block commits", r)
	}
	if h := f.bc.Height(); h != 0 {
		t.Errorf("height %d readable while block 1 commits", h)
	}
	if _, err := f.bc.BlockAt(1); err == nil {
		t.Error("block 1 readable while it commits")
	}
	balances := make([]chan Wei, len(f.accounts))
	for i, a := range f.accounts {
		balances[i] = make(chan Wei, 1)
		go func() { balances[i] <- f.bc.Balance(a.Address()) }()
	}
	time.Sleep(50 * time.Millisecond)
	read := make([]Wei, len(f.accounts))
	early := make([]bool, len(f.accounts))
	for i := range balances {
		select {
		case read[i] = <-balances[i]:
			early[i] = true
			t.Errorf("Balance of account %d returned %d while the block commits", i, read[i])
		default:
		}
	}

	aborted := make(chan error, 1)
	go func() { _, err := w.Abort(); aborted <- err }()
	if err := <-sealed; !errors.Is(err, ErrWALAborted) {
		t.Errorf("SealBlock under an aborted commit: %v, want ErrWALAborted", err)
	}
	close(release)
	if err := <-aborted; err != nil {
		t.Fatal(err)
	}
	for i := range balances {
		if !early[i] {
			read[i] = <-balances[i]
		}
		if read[i] != before[i] {
			t.Errorf("account %d: balance %d after the failed commit, want the pre-block %d", i, read[i], before[i])
		}
	}
	if h, p := f.bc.Height(), f.bc.PendingCount(); h != 0 || p != 2 {
		t.Errorf("after the failed commit: height %d, pending %d; want 0 and 2", h, p)
	}
	if _, err := f.bc.ReceiptByHash(hash); err == nil {
		t.Error("a failed commit installed a receipt")
	}

	bc, err := OpenDurable(f.dir, f.authority, f.params, f.alloc)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.CloseDurable()
	if h, p := bc.Height(), bc.PendingCount(); h != 0 || p != 2 {
		t.Errorf("reopened: height %d, pending %d; want 0 and 2", h, p)
	}
	for i, a := range f.accounts {
		if got := bc.Balance(a.Address()); got != read[i] {
			t.Errorf("reopened: account %d balance %d, but %d was read", i, got, read[i])
		}
	}
}

// TestNonceFrontierInvariant drives seeded random interleavings of valid,
// bad-nonce, duplicate and failing-contract transactions, seals and one
// mid-run reopen, and checks after every step that each sender's admission
// frontier is its state nonce plus its pending transactions: admission
// reads no ledger, so this is what keeps it right. It holds only because
// every pool-admitted transaction consumes its nonce, a failing one too.
func TestNonceFrontierInvariant(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		f := newDurableFixture(t, 4)
		rng := rand.New(rand.NewSource(seed))
		next := map[Address]uint64{} // the test's own count of admitted txs
		var accepted []Transaction
		const steps = 120
		for step := 0; step < steps; step++ {
			acct := f.accounts[rng.Intn(len(f.accounts))]
			from := acct.Address()
			switch op := rng.Intn(10); {
			case op < 5: // valid: a transfer, a first or repeated deposit, or an early payoffTransfer
				fn, args, value := FnTransfer, any(TransferArgs{To: f.accounts[rng.Intn(len(f.accounts))].Address()}), Wei(1+rng.Intn(1_000))
				switch rng.Intn(3) {
				case 1:
					fn, args, value = FnDepositSubmit, nil, MinDeposit(f.params, 0, 5e9)
				case 2:
					fn, args, value = FnPayoffTransfer, nil, 0
				}
				tx, err := NewTransaction(acct, next[from], fn, args, value)
				if err != nil {
					t.Fatal(err)
				}
				if err := f.bc.SubmitTx(*tx); err != nil {
					t.Fatalf("seed %d step %d: valid %s: %v", seed, step, fn, err)
				}
				next[from]++
				accepted = append(accepted, *tx)
			case op < 6: // bad nonce
				tx, err := NewTransaction(acct, next[from]+1+uint64(rng.Intn(3)), FnTransfer, TransferArgs{To: from}, 1)
				if err != nil {
					t.Fatal(err)
				}
				if err := f.bc.SubmitTx(*tx); !errors.Is(err, ErrBadNonce) {
					t.Fatalf("seed %d step %d: bad nonce admitted: %v", seed, step, err)
				}
			case op < 7: // duplicate of a pending or sealed tx
				if len(accepted) == 0 {
					continue
				}
				if err := f.bc.SubmitTx(accepted[rng.Intn(len(accepted))]); !IsAlreadyKnown(err) {
					t.Fatalf("seed %d step %d: duplicate: %v", seed, step, err)
				}
			default:
				if _, err := f.bc.SealBlock(); err != nil {
					t.Fatal(err)
				}
			}
			if step == steps/2 {
				if err := f.bc.CloseDurable(); err != nil {
					t.Fatal(err)
				}
				bc, err := OpenDurable(f.dir, f.authority, f.params, f.alloc)
				if err != nil {
					t.Fatal(err)
				}
				f.bc = bc
			}
			checkNonceFrontier(t, f.bc, seed, step)
		}
		if err := f.bc.CloseDurable(); err != nil {
			t.Fatal(err)
		}
	}
}

// checkNonceFrontier asserts nextNonce[a] == led.Nonces[a] + pending(a)
// for every sender either map knows.
func checkNonceFrontier(t *testing.T, bc *Blockchain, seed int64, step int) {
	t.Helper()
	bc.execMu.RLock()
	defer bc.execMu.RUnlock()
	bc.poolMu.RLock()
	defer bc.poolMu.RUnlock()
	pending := map[Address]uint64{}
	for _, tx := range bc.pool {
		pending[tx.From]++
	}
	senders := map[Address]bool{}
	for a := range bc.nextNonce {
		senders[a] = true
	}
	for a := range bc.led.Nonces {
		senders[a] = true
	}
	for a := range senders {
		if got, want := bc.nextNonce[a], bc.led.Nonces[a]+pending[a]; got != want {
			t.Fatalf("seed %d step %d: %s frontier %d, want state nonce %d + %d pending", seed, step, a, got, bc.led.Nonces[a], pending[a])
		}
	}
}

// TestSealSecondsCoverTheCommit: tradefl_chain_seal_seconds is the wall
// time of the whole SealBlock, its help says so, so a block whose record
// waits behind a parked syncer observes the wait, not only the execution
// up to the enqueue.
func TestSealSecondsCoverTheCommit(t *testing.T) {
	f := newDurableFixture(t, 3)
	w := f.bc.WAL()
	park, release := make(chan struct{}), make(chan struct{})
	payer := f.accounts[1].Address()
	w.OnDurable(func(ev DurableEvent) {
		if ev.Kind == DurableTx && ev.Tx.From == payer {
			close(park)
			<-release
		}
	})
	pay, err := NewTransaction(f.accounts[1], 0, FnTransfer, TransferArgs{To: f.accounts[2].Address()}, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := f.bc.SubmitTxBatch([]Transaction{*pay}); err != nil || !res[0].OK {
		t.Fatalf("submit: %+v, %v", res, err)
	}
	<-park
	count, sum := mSealSec.Count(), mSealSec.Sum()
	sealed := make(chan error, 1)
	go func() { _, err := f.bc.SealBlock(); sealed <- err }()
	deadline := time.Now().Add(10 * time.Second)
	for queued := 0; queued == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the block record never reached the WAL queue")
		}
		time.Sleep(time.Millisecond)
		w.mu.Lock()
		queued = len(w.queue)
		w.mu.Unlock()
	}
	const parked = 150 * time.Millisecond
	time.Sleep(parked)
	close(release)
	if err := <-sealed; err != nil {
		t.Fatal(err)
	}
	if n := mSealSec.Count() - count; n != 1 {
		t.Fatalf("%d seal observations for one SealBlock", n)
	}
	if got := mSealSec.Sum() - sum; got < parked.Seconds() {
		t.Errorf("seal observed %.3f s; its record waited %.3f s for the fsync", got, parked.Seconds())
	}
}
