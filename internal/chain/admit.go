package chain

import (
	"errors"
	"fmt"

	"tradefl/internal/parallel"
)

// Admission: every transaction enters the mempool through admit, one call,
// one lock hold and one WAL group commit for however many transactions it
// carries (SubmitTx is the batch of one). Signature verification and
// hashing (the CPU cost of admission) run on the parallel pool before the
// mempool lock is taken; admission itself is a single ordered pass, so
// every WAL record of the call lands in one fsync cohort.

// SubmitResult is the per-transaction outcome of SubmitTxBatch.
type SubmitResult struct {
	// TxHash is the transaction id (empty if the tx was malformed enough
	// not to hash).
	TxHash string `json:"txHash,omitempty"`
	// OK means the transaction is accepted: newly admitted and durable, or
	// a dedup hit (see Known) — the idempotent-retry success.
	OK bool `json:"ok"`
	// Known marks a dedup hit: the chain already held this exact
	// transaction, pending or sealed.
	Known bool `json:"known,omitempty"`
	// Error is the rejection reason when OK is false (and the dedup detail
	// when Known).
	Error string `json:"error,omitempty"`
}

// SubmitTx validates a transaction and adds it to the mempool. An exact
// resubmission (same hash) of a pending or sealed transaction is rejected
// with ErrTxAlreadyKnown, which retrying clients treat as success — the
// dedup that makes at-least-once submission safe under lost responses.
//
// With a WAL attached, SubmitTx returns only after the transaction is
// fsynced (group commit): acceptance survives kill -9, and because the
// mempool is rebuilt from the log on recovery, the dedup above survives
// restarts too — a client retrying across a crash cannot double-apply.
//
// Admission takes neither sealSeq nor execMu, so submissions for block
// H+1 land while block H executes and fsyncs.
func (bc *Blockchain) SubmitTx(tx Transaction) error {
	adm, err := bc.admit([]Transaction{tx})
	if err != nil {
		return err
	}
	return adm[0].err
}

// SubmitTxBatch validates and admits txs in order. Per-transaction
// rejections (bad signature, bad nonce, dedup) are reported in the results,
// not as a call error; the call itself fails only when durability does —
// a dead WAL, where nothing can be acknowledged. With a WAL attached the
// call returns after every admitted transaction is fsynced; because the
// batch is enqueued under one lock hold, the syncer commits it as one
// group, which is where the per-tx cost collapses.
func (bc *Blockchain) SubmitTxBatch(txs []Transaction) ([]SubmitResult, error) {
	if len(txs) == 0 {
		return nil, nil
	}
	adm, err := bc.admit(txs)
	if err != nil {
		return nil, err
	}
	results := make([]SubmitResult, len(adm))
	for i, a := range adm {
		results[i] = SubmitResult{TxHash: a.hash, OK: a.err == nil}
		if a.err != nil {
			results[i].Error = a.err.Error()
			if errors.Is(a.err, ErrTxAlreadyKnown) {
				results[i].OK, results[i].Known = true, true
			}
		}
	}
	return results, nil
}

// admission is one transaction's way through admit: what the parallel pass
// derived from it, its rejection, and the WAL ticket of an admitted one.
type admission struct {
	hash   string
	frame  []byte
	err    error
	ticket *walTicket
}

// admit is the one admission path. It returns one admission per tx, in
// order; a nil err means newly admitted and, with a WAL attached, durable.
// The call error is a dead WAL, checked once before anything is admitted —
// dedup hits included, which must not masquerade as durable acceptance —
// or a group commit that failed.
func (bc *Blockchain) admit(txs []Transaction) ([]admission, error) {
	adm := make([]admission, len(txs))
	mSigAdmit.Add(int64(len(txs)))
	parallel.ForLabeled("chain.batchVerify", parallel.Default(), len(txs), func(i int) {
		a := &adm[i]
		if a.err = txs[i].Verify(); a.err != nil {
			return
		}
		if a.hash, a.err = txs[i].Hash(); a.err != nil || bc.wal == nil {
			return
		}
		// The record is discarded if validation rejects the tx. bc.wal is
		// fixed before concurrent use.
		a.frame, a.err = encodeWalRec(walRec{Kind: recTx, Tx: &txs[i]})
	})
	bc.poolMu.Lock()
	if bc.wal != nil {
		if err := bc.wal.Err(); err != nil {
			bc.poolMu.Unlock()
			return nil, fmt.Errorf("chain: wal unavailable: %w", err)
		}
	}
	for i := range adm {
		if adm[i].err == nil {
			adm[i].ticket, adm[i].err = bc.admitTxLocked(txs[i], adm[i].hash, adm[i].frame)
		}
	}
	bc.poolMu.Unlock()
	admitted := 0
	for i := range adm {
		if adm[i].err != nil {
			continue
		}
		if err := adm[i].ticket.wait(); err != nil {
			return nil, fmt.Errorf("chain: tx not durable: %w", err)
		}
		admitted++
	}
	mTxSubmitted.Add(int64(admitted))
	return adm, nil
}

// admitTxLocked validates tx against the mempool indexes, appends it to
// the pool and enqueues its WAL record (chain order == log order because
// every enqueue happens under poolMu). A nil ticket with nil error means no
// WAL is attached.
func (bc *Blockchain) admitTxLocked(tx Transaction, hash string, frame []byte) (*walTicket, error) {
	if _, dup := bc.poolHash[hash]; dup {
		return nil, fmt.Errorf("%w: %s pending", ErrTxAlreadyKnown, hash)
	}
	if rcpt := bc.sealedRcpt[hash]; rcpt != nil {
		return nil, fmt.Errorf("%w: %s sealed at height %d", ErrTxAlreadyKnown, hash, rcpt.Height)
	}
	// Nonce must follow the pending sequence: the frontier is the state
	// nonce plus the sender's pending txs (0 for a sender never seen), so
	// admission never reads the ledger.
	expected := bc.nextNonce[tx.From]
	if tx.Nonce != expected {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrBadNonce, tx.Nonce, expected)
	}
	bc.pool = append(bc.pool, tx)
	bc.poolHashes = append(bc.poolHashes, hash)
	bc.poolHash[hash] = struct{}{}
	bc.nextNonce[tx.From] = expected + 1
	if bc.wal == nil {
		return nil, nil
	}
	return bc.wal.enqueue(frame, walRec{Kind: recTx, Tx: &tx}), nil
}
