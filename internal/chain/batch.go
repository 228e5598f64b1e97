package chain

import (
	"errors"
	"fmt"
	"sync"
	"time"

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

// TxBatchSubmitter is any batch-capable submission target: a *Blockchain
// in process, or a *Client across RPC.
type TxBatchSubmitter interface {
	SubmitTxBatch(txs []Transaction) ([]SubmitResult, error)
}

// BatchOptions tunes a BatchSubmitter.
type BatchOptions struct {
	// MaxBatch flushes as soon as this many txs are pending (0 = 256).
	MaxBatch int
	// Linger is how long the first tx of a batch waits for company before
	// a partial batch flushes (0 = 2ms).
	Linger time.Duration
}

func (o BatchOptions) withDefaults() BatchOptions {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.Linger <= 0 {
		o.Linger = 2 * time.Millisecond
	}
	return o
}

type batchOutcome struct {
	res SubmitResult
	err error
}

type batchEntry struct {
	tx   Transaction
	done chan batchOutcome
}

// BatchSubmitter coalesces concurrent SubmitTx-style calls into
// SubmitTxBatch calls: callers block for their own result, but share one
// round-trip and one WAL group commit per flush. It converts the
// per-client-goroutine settlement pattern into batched submission without
// restructuring the callers.
type BatchSubmitter struct {
	dst  TxBatchSubmitter
	opts BatchOptions

	mu      sync.Mutex
	pending []batchEntry
	timer   *time.Timer
	closed  bool
}

// NewBatchSubmitter wraps dst in a micro-batcher.
func NewBatchSubmitter(dst TxBatchSubmitter, opts BatchOptions) *BatchSubmitter {
	return &BatchSubmitter{dst: dst, opts: opts.withDefaults()}
}

// Submit enqueues tx and blocks until its batch is submitted. Semantics
// match Client.SubmitTx: nil for accepted (including a dedup hit on
// retry), an error for a rejection.
func (s *BatchSubmitter) Submit(tx Transaction) error {
	done := make(chan batchOutcome, 1)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("chain: batch submitter closed")
	}
	s.pending = append(s.pending, batchEntry{tx: tx, done: done})
	if len(s.pending) >= s.opts.MaxBatch {
		batch := s.takeLocked()
		s.mu.Unlock()
		s.flush(batch)
	} else {
		if len(s.pending) == 1 {
			s.timer = time.AfterFunc(s.opts.Linger, s.flushTimer)
		}
		s.mu.Unlock()
	}
	out := <-done
	if out.err != nil {
		return out.err
	}
	if !out.res.OK {
		return errors.New(out.res.Error)
	}
	if out.res.Known {
		mClientDedups.Inc()
	}
	return nil
}

// Close flushes the pending partial batch and rejects future Submits.
func (s *BatchSubmitter) Close() {
	s.mu.Lock()
	s.closed = true
	batch := s.takeLocked()
	s.mu.Unlock()
	s.flush(batch)
}

// takeLocked claims the pending batch and disarms the linger timer.
func (s *BatchSubmitter) takeLocked() []batchEntry {
	batch := s.pending
	s.pending = nil
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	return batch
}

func (s *BatchSubmitter) flushTimer() {
	s.mu.Lock()
	batch := s.takeLocked()
	s.mu.Unlock()
	s.flush(batch)
}

func (s *BatchSubmitter) flush(batch []batchEntry) {
	if len(batch) == 0 {
		return
	}
	txs := make([]Transaction, len(batch))
	for i := range batch {
		txs[i] = batch[i].tx
	}
	results, err := s.dst.SubmitTxBatch(txs)
	for i := range batch {
		out := batchOutcome{err: err}
		if err == nil {
			if i < len(results) {
				out.res = results[i]
			} else {
				out.err = errors.New("chain: batch result missing")
			}
		}
		batch[i].done <- out
	}
}
