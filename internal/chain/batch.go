package chain

import (
	"errors"
	"fmt"

	"tradefl/internal/parallel"
)

// Batched submission: one call, one lock hold, one WAL group commit for a
// whole settlement round's worth of transactions. Signature verification
// and hashing (the CPU cost of admission) run on the parallel pool before
// the mempool lock is taken; admission itself is a single ordered pass, so
// every WAL record of the batch lands in one fsync cohort.

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

// SubmitTxBatch validates and admits txs in order. Per-transaction
// rejections (bad signature, bad nonce, dedup) are reported in the results,
// not as a call error; the call itself fails only when durability does —
// a dead WAL, where nothing can be acknowledged. With a WAL attached the
// call returns after every admitted transaction is fsynced; because the
// batch is enqueued under one lock hold, the syncer commits it as one
// group, which is where the per-tx cost collapses.
func (bc *Blockchain) SubmitTxBatch(txs []Transaction) ([]SubmitResult, error) {
	n := len(txs)
	if n == 0 {
		return nil, nil
	}
	results := make([]SubmitResult, n)
	hashes := make([]string, n)
	frames := make([][]byte, n)
	verrs := make([]error, n)
	mSigAdmit.Add(int64(n))
	parallel.ForLabeled("chain.batchVerify", parallel.Default(), n, func(i int) {
		if err := txs[i].Verify(); err != nil {
			verrs[i] = err
			return
		}
		h, err := txs[i].Hash()
		if err != nil {
			verrs[i] = err
			return
		}
		hashes[i] = h
		if bc.wal != nil {
			f, err := encodeWalRec(walRec{Kind: recTx, Tx: &txs[i]})
			if err != nil {
				verrs[i] = err
				return
			}
			frames[i] = f
		}
	})
	bc.poolMu.Lock()
	if bc.wal != nil {
		if err := bc.wal.Err(); err != nil {
			bc.poolMu.Unlock()
			return nil, fmt.Errorf("chain: wal unavailable: %w", err)
		}
	}
	tickets := make([]*walTicket, n)
	for i := range txs {
		if verrs[i] != nil {
			results[i] = SubmitResult{TxHash: hashes[i], Error: verrs[i].Error()}
			continue
		}
		results[i].TxHash = hashes[i]
		ticket, err := bc.admitTxLocked(txs[i], hashes[i], frames[i])
		if err != nil {
			results[i].Error = err.Error()
			if errors.Is(err, ErrTxAlreadyKnown) {
				results[i].OK = true
				results[i].Known = true
			}
			continue
		}
		results[i].OK = true
		tickets[i] = ticket
	}
	bc.poolMu.Unlock()
	admitted := 0
	for i, ticket := range tickets {
		if ticket == nil {
			if results[i].OK && !results[i].Known {
				admitted++
			}
			continue
		}
		if err := ticket.wait(); err != nil {
			return nil, fmt.Errorf("chain: batch not durable: %w", err)
		}
		admitted++
	}
	mTxSubmitted.Add(int64(admitted))
	return results, nil
}
