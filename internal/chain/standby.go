package chain

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"tradefl/internal/obs"
	"tradefl/internal/transport"
)

// Standby-validator failover.
//
// The primary validator streams every durable WAL record (post-fsync, in
// log order) to a follower over the transport fabric. The follower applies
// each record to its own chain — re-executing transactions and re-sealing
// blocks, never trusting the primary's roots — so it holds a verified
// replica plus the primary's mempool. When the stream goes silent for the
// failover window (the primary's crash window from internal/faults, a real
// kill, a partition), the standby promotes itself: it bumps the fencing
// term durably and starts sealing. A revived primary still seals with the
// old term, and every replica — including the promoted standby — rejects
// its blocks with ErrStaleTerm, so the old primary can no longer extend
// the chain: no fork.
//
// Replication is asynchronous: the primary does not wait for the follower,
// so a failover may lose the suffix of records that never reached the
// standby. Clients recover exactly as they do from a crash — the retrying
// RPC client resubmits, and the dedup/nonce checks make that safe.

var standbyLog = obs.Component("chain.standby")

// MsgWALRecord is the transport message type carrying one replicated WAL
// record.
const MsgWALRecord = "chain.wal.record"

// Replicator forwards durable WAL records to a follower endpoint. Sends
// run on the WAL syncer goroutine and are best-effort: a send failure is
// counted and logged, never blocks an acknowledgement.
type Replicator struct {
	tr transport.Transport
	to string
}

// NewReplicator wires the chain's WAL observer to stream records to peer
// `to` over tr. The chain must have a WAL and not yet be serving traffic
// (the observer is installed without synchronization).
func NewReplicator(bc *Blockchain, tr transport.Transport, to string) (*Replicator, error) {
	if bc.WAL() == nil {
		return nil, fmt.Errorf("chain: replication needs a wal")
	}
	r := &Replicator{tr: tr, to: to}
	bc.WAL().observer = r.send
	return r, nil
}

// send forwards the payload the log holds for rec, the bytes the follower
// decodes as a log replay would.
func (r *Replicator) send(_ walRec, payload []byte) {
	if err := r.tr.Send(r.to, transport.Message{Type: MsgWALRecord, Payload: payload}); err != nil {
		standbyLog.Debug("replication send failed", "to", r.to, "err", err)
		obs.FlightRecord("chain", "repl-drop", fmt.Sprintf("to %s: %v", r.to, err))
	}
}

// failoverAfter promotes the standby when no record arrived for this long.
// It is several sealing intervals wide so an idle primary is not deposed.
const failoverAfter = 2 * time.Second

// Standby tails the replication stream into a local chain and promotes
// itself when the primary goes silent.
type Standby struct {
	bc *Blockchain
	tr transport.Transport
}

// NewStandby builds a follower around bc (typically a fresh chain with the
// same genesis params/alloc and authority key as the primary, optionally
// with its own WAL dir) receiving on tr.
func NewStandby(bc *Blockchain, tr transport.Transport) *Standby {
	return &Standby{bc: bc, tr: tr}
}

// Run applies replicated records until the stream goes silent for
// failoverAfter, then promotes the local chain to the next fencing term
// and returns true — the caller takes over sealing on that chain. It
// returns false when ctx is cancelled or the transport closes first.
//
// Apply errors are handled by kind: a stale-term block (deposed primary
// still streaming) is dropped; anything else is a replica divergence and
// is returned — a standby that cannot prove it matches the primary must
// not take over.
func (s *Standby) Run(ctx context.Context) (bool, error) {
	timer := time.NewTimer(failoverAfter)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return false, ctx.Err()
		case <-timer.C:
			term, err := s.bc.Promote()
			if err != nil {
				return false, fmt.Errorf("chain: standby promotion: %w", err)
			}
			standbyLog.Info("primary silent, standby promoted",
				"silence", failoverAfter, "term", term, "height", s.bc.Height())
			obs.FlightRecord("chain", "failover",
				fmt.Sprintf("promoted to term %d at height %d", term, s.bc.Height()))
			return true, nil
		case msg, ok := <-s.tr.Receive():
			if !ok {
				return false, nil
			}
			if msg.Type != MsgWALRecord {
				continue
			}
			if err := s.apply(msg.Payload); err != nil {
				return false, err
			}
			if !timer.Stop() {
				<-timer.C
			}
			timer.Reset(failoverAfter)
		}
	}
}

// apply installs one replicated record into the follower chain.
func (s *Standby) apply(payload []byte) error {
	var rec walRec
	if err := decodeWalRec(payload, &rec); err != nil {
		return fmt.Errorf("chain: bad replication record: %w", err)
	}
	switch rec.Kind {
	case recTx:
		if rec.Tx == nil {
			return fmt.Errorf("chain: replication tx record without tx")
		}
		if err := s.bc.SubmitTx(*rec.Tx); err != nil {
			// The primary accepted it, so the replica must too — unless it
			// already knows it (a record replayed after reconnect).
			if IsAlreadyKnown(err) {
				return nil
			}
			return fmt.Errorf("chain: replica diverged on tx: %w", err)
		}
	case recBlock:
		if rec.Block == nil {
			return fmt.Errorf("chain: replication block record without block")
		}
		if err := s.bc.ApplySealedBlock(rec.Block); err != nil {
			if IsStaleTerm(err) {
				standbyLog.Warn("fenced off stale-term block",
					"height", rec.Block.Height, "term", rec.Block.Term, "localTerm", s.bc.Term())
				return nil
			}
			return fmt.Errorf("chain: replica diverged on block %d: %w", rec.Block.Height, err)
		}
	case recTerm:
		s.bc.setTerm(rec.Term)
	default:
		return fmt.Errorf("chain: unknown replication record kind %q", rec.Kind)
	}
	mReplApplied.Inc()
	return nil
}

// IsStaleTerm reports whether err is the fencing rejection (directly or
// through an RPC error message).
func IsStaleTerm(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrStaleTerm) {
		return true
	}
	var rerr *RPCError
	return errors.As(err, &rerr) && strings.Contains(rerr.Message, ErrStaleTerm.Error())
}
