package chain

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"tradefl/internal/durable"
	"tradefl/internal/obs"
)

// Recovery and incremental snapshots.
//
// A durable chain directory holds two kinds of files:
//
//	snap-NNNNNNNN.json   full chain document (params, genesis alloc, all
//	                     blocks, pending pool, fencing term) written
//	                     atomically by Checkpoint; NNNNNNNN is the WAL
//	                     segment the snapshot's replay resumes from
//	wal-NNNNNNNN.seg     CRC-framed record log (see wal.go)
//
// Checkpoint rotates the WAL to a fresh segment while holding the chain
// lock — every record enqueued before the rotation lands in the old
// segment and the snapshot captures exactly the state those records
// produced — then writes snap-<newSeq>.json atomically. Recovery replays
// the newest decodable snapshot from genesis (verifying every root, seal
// and signature; the snapshot is never trusted) and then replays the WAL
// segments >= the snapshot's sequence, truncating a torn tail in the final
// segment only. The latest two snapshots are retained and WAL segments
// below the older one are garbage-collected, so a corrupt newest snapshot
// can always fall back to its predecessor with the log suffix intact.

var recoverLog = obs.Component("chain.recover")

// ErrNoSnapshot is returned when a recovery directory has no snapshot.
var ErrNoSnapshot = errors.New("chain: no snapshot in wal dir")

// ErrReplayMismatch is returned when a stored chain does not reproduce
// under replay.
var ErrReplayMismatch = errors.New("chain: replay mismatch")

// snapshotDoc is the on-disk snapshot document.
type snapshotDoc struct {
	Params ContractParams `json:"params"`
	Alloc  GenesisAlloc   `json:"alloc"`
	Blocks []*Block       `json:"blocks"`
	Pool   []Transaction  `json:"pool,omitempty"`
	Term   uint64         `json:"term,omitempty"`
	// WALSeq is the first WAL segment holding records newer than this
	// snapshot.
	WALSeq uint64 `json:"walSeq"`
}

// snapshotName formats the file name of the snapshot at WAL sequence seq.
func snapshotName(seq uint64) string { return fmt.Sprintf("snap-%08d.json", seq) }

// listSnapshots returns the snapshot sequence numbers in dir, ascending.
func listSnapshots(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		var seq uint64
		if n, err := fmt.Sscanf(e.Name(), "snap-%d.json", &seq); n == 1 && err == nil {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// OpenDurable opens (or initializes) a WAL-backed chain in dir. A fresh
// directory gets a new chain from params/alloc, an initial snapshot, and
// WAL segment 1; a directory with prior state is recovered — params and
// alloc then come from the recovered snapshot, and the arguments are only
// used to detect an accidental genesis mismatch.
func OpenDurable(dir string, authority *Account, params ContractParams, alloc GenesisAlloc) (*Blockchain, error) {
	return OpenDurableOpts(dir, authority, params, alloc, Options{})
}

// OpenDurableOpts is OpenDurable with explicit Options. They belong to the
// running process, not to the durable state: any option set can open (and
// exactly reproduce) a directory written under any other.
func OpenDurableOpts(dir string, authority *Account, params ContractParams, alloc GenesisAlloc, opts Options) (*Blockchain, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("chain: wal dir: %w", err)
	}
	snaps, err := listSnapshots(dir)
	if err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(snaps) == 0 && len(segs) == 0 {
		return initDurable(dir, authority, params, alloc, opts)
	}
	return recoverDir(dir, authority, math.MaxUint64, opts)
}

// initDurable bootstraps a fresh durable chain: genesis, segment 1, and a
// base snapshot so recovery always has a self-contained starting point.
func initDurable(dir string, authority *Account, params ContractParams, alloc GenesisAlloc, opts Options) (*Blockchain, error) {
	bc, err := newBlockchain(authority, params, alloc, opts)
	if err != nil {
		return nil, err
	}
	w, err := createWAL(dir, 1)
	if err != nil {
		return nil, err
	}
	doc := snapshotDoc{Params: params, Alloc: alloc, Blocks: bc.blocks, Term: 0, WALSeq: 1}
	raw, err := json.Marshal(doc)
	if err != nil {
		w.Close()
		return nil, err
	}
	if err := durable.WriteFileAtomic(filepath.Join(dir, snapshotName(1)), raw, 0o600); err != nil {
		w.Close()
		return nil, err
	}
	bc.attachWAL(w)
	obs.FlightRecord("chain", "durable-init", "fresh chain in "+dir)
	return bc, nil
}

// Recover rebuilds the chain in dir to its last durable state: newest
// decodable snapshot, replayed and verified from genesis, plus every WAL
// record that survived the crash. The recovered chain has the WAL
// reattached and is ready to serve.
func Recover(dir string, authority *Account) (*Blockchain, error) {
	return recoverDir(dir, authority, math.MaxUint64, Options{})
}

// RecoverAt is point-in-time recovery: it rebuilds the chain exactly as
// of sealed block `height` — the same replay as Recover, ignoring every
// record from the next block's on — and returns it detached from the
// WAL: a read-only forensic view; sealing on it would fork the durable
// history.
func RecoverAt(dir string, authority *Account, height uint64) (*Blockchain, error) {
	return recoverDir(dir, authority, height, Options{})
}

// recoverDir is the shared recovery core: it replays up to block
// stopHeight. Only a full recovery (math.MaxUint64) reattaches the WAL for
// append; a point-in-time target leaves the directory untouched.
func recoverDir(dir string, authority *Account, stopHeight uint64, opts Options) (*Blockchain, error) {
	attach := stopHeight == math.MaxUint64
	start := time.Now()
	defer mRecoverSec.ObserveSince(start)
	snaps, err := listSnapshots(dir)
	if err != nil {
		return nil, err
	}
	if len(snaps) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoSnapshot, dir)
	}
	// Newest snapshot first; fall back to its predecessor if it is damaged
	// (a checkpoint that crashed mid-write, a tampered file). Segments are
	// GC'd only below the older retained snapshot, so the fallback's log
	// suffix is always intact.
	var lastErr error
	for i := len(snaps) - 1; i >= 0; i-- {
		bc, err := recoverFromSnapshot(dir, authority, snaps[i], stopHeight, attach, opts)
		if err == nil {
			// Every snapshot replays the same log suffix, so an older one
			// cannot reach further: a missing target is not a fallback.
			if !attach && bc.Height() < stopHeight {
				return nil, fmt.Errorf("chain: no sealed block at height %d (durable history ends at %d)", stopHeight, bc.Height())
			}
			recoverLog.Info("recovered", "dir", dir, "snapshot", snaps[i],
				"height", bc.Height(), "pending", bc.PendingCount(), "term", bc.Term())
			return bc, nil
		}
		mRecoverBack.Inc()
		recoverLog.Warn("snapshot recovery failed", "snapshot", snaps[i], "err", err)
		obs.FlightRecord("chain", "recover-fallback",
			fmt.Sprintf("snapshot %d unusable: %v", snaps[i], err))
		lastErr = err
	}
	return nil, fmt.Errorf("chain: recovery exhausted %d snapshots: %w", len(snaps), lastErr)
}

// replayer applies recovered history to a chain in log order. Snapshot
// and WAL suffix both arrive as records, so each block goes through one
// arm and the point-in-time target is checked there alone.
type replayer struct {
	bc   *Blockchain
	stop uint64 // last block to apply
	done bool   // a block past stop was reached; later records are ignored
}

func (r *replayer) apply(rec walRec) error {
	if r.done {
		return nil
	}
	switch rec.Kind {
	case recTx:
		if rec.Tx == nil {
			return errors.New("tx record without tx")
		}
		if err := r.bc.SubmitTx(*rec.Tx); err != nil {
			return fmt.Errorf("replay tx: %v", err)
		}
	case recBlock:
		if rec.Block == nil {
			return errors.New("block record without block")
		}
		if rec.Block.Height > r.stop {
			r.done = true
			return nil
		}
		// Admission runs while a seal executes, so the pool holds this
		// block's txs as a prefix (their records precede the block's) and
		// txs admitted during its execution follow as the remainder.
		// Unfenced: term records in the log may postdate this block, so the
		// stored term is installed verbatim rather than checked.
		if err := r.bc.applyStored(rec.Block, false); err != nil {
			return fmt.Errorf("block %d: %v", rec.Block.Height, err)
		}
	case recTerm:
		r.bc.setTerm(rec.Term)
	default:
		return fmt.Errorf("unknown record kind %q", rec.Kind)
	}
	return nil
}

// recoverFromSnapshot replays one snapshot and its WAL suffix.
func recoverFromSnapshot(dir string, authority *Account, snapSeq, stopHeight uint64, attach bool, opts Options) (*Blockchain, error) {
	raw, err := os.ReadFile(filepath.Join(dir, snapshotName(snapSeq)))
	if err != nil {
		return nil, err
	}
	var doc snapshotDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("chain: decode snapshot: %w", err)
	}
	if len(doc.Blocks) == 0 {
		return nil, fmt.Errorf("%w: snapshot has no blocks", ErrReplayMismatch)
	}
	bc, err := newBlockchain(authority, doc.Params, doc.Alloc, opts)
	if err != nil {
		return nil, err
	}
	if err := sameBlock(bc.blocks[0], doc.Blocks[0]); err != nil {
		return nil, fmt.Errorf("%w: genesis: %v", ErrReplayMismatch, err)
	}
	// The snapshot replays as the log it compacts: each block's txs, then
	// the block; then the term and the pool, whose tx records lie in the
	// segments below snapSeq.
	r := &replayer{bc: bc, stop: stopHeight}
	for _, b := range doc.Blocks[1:] {
		for i := 0; err == nil && i < len(b.Txs); i++ {
			err = r.apply(walRec{Kind: recTx, Tx: &b.Txs[i]})
		}
		if err == nil {
			err = r.apply(walRec{Kind: recBlock, Block: b})
		}
	}
	if err == nil {
		err = r.apply(walRec{Kind: recTerm, Term: doc.Term})
	}
	for i := 0; err == nil && i < len(doc.Pool); i++ {
		err = r.apply(walRec{Kind: recTx, Tx: &doc.Pool[i]})
	}
	if err != nil {
		return nil, fmt.Errorf("%w: snapshot: %v", ErrReplayMismatch, err)
	}
	return replayWALSuffix(dir, r, snapSeq, attach)
}

// replayWALSuffix replays segments >= snapSeq through r. Only the final
// segment may end in a torn tail; a tear or a decode failure anywhere else
// is ErrWALCorrupt. With attach=true the tail is truncated, the final
// segment is reopened for append and the WAL wired into the chain;
// attach=false only reads.
func replayWALSuffix(dir string, r *replayer, snapSeq uint64, attach bool) (*Blockchain, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	var suffix []uint64
	for _, seq := range segs {
		if seq >= snapSeq {
			suffix = append(suffix, seq)
		}
	}
	if len(suffix) == 0 {
		// The rotation that precedes a snapshot write creates the segment
		// before the snapshot exists, so an empty suffix means the files
		// were tampered with.
		return nil, fmt.Errorf("%w: no wal segment >= %d", ErrWALCorrupt, snapSeq)
	}
	for i, seq := range suffix {
		if want := suffix[0] + uint64(i); seq != want {
			return nil, fmt.Errorf("%w: segment gap: have %d, want %d", ErrWALCorrupt, seq, want)
		}
	}
	replay := func(payload []byte) error {
		if r.done {
			return nil
		}
		var rec walRec
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("%w: undecodable record: %v", ErrWALCorrupt, err)
		}
		if err := r.apply(rec); err != nil {
			return fmt.Errorf("%w: %v", ErrWALCorrupt, err)
		}
		return nil
	}
	var lastSize int64
	for i, seq := range suffix {
		path := filepath.Join(dir, segmentName(seq))
		final := i == len(suffix)-1
		if final && attach {
			// Truncate-and-replay in one pass; the tear (if any) is gone
			// from disk afterwards, which makes recovery idempotent.
			removed, err := durable.TruncateTornTail(path, replay)
			if err != nil {
				return nil, err
			}
			if removed > 0 {
				recoverLog.Warn("truncated torn wal tail", "segment", seq, "bytes", removed)
				obs.FlightRecord("chain", "wal-torn-tail",
					fmt.Sprintf("segment %d: %d bytes truncated", seq, removed))
			}
			st, err := os.Stat(path)
			if err != nil {
				return nil, err
			}
			lastSize = st.Size()
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		_, scanErr := durable.ScanFrames(f, replay)
		f.Close()
		if scanErr != nil {
			if final && errors.Is(scanErr, durable.ErrTornTail) {
				break // read-only view: stop at the tear, leave the file alone
			}
			if errors.Is(scanErr, durable.ErrTornTail) {
				return nil, fmt.Errorf("%w: torn tail in non-final segment %d", ErrWALCorrupt, seq)
			}
			return nil, scanErr
		}
	}
	if !attach {
		return r.bc, nil
	}
	w, err := openWALSegment(dir, suffix[len(suffix)-1], lastSize)
	if err != nil {
		return nil, err
	}
	r.bc.attachWAL(w)
	return r.bc, nil
}

// Checkpoint writes an incremental snapshot: it rotates the WAL under the
// chain lock (so the snapshot state and the segment boundary agree
// exactly), writes snap-<newSeq>.json atomically, keeps the latest two
// snapshots, and garbage-collects WAL segments below the older retained
// one. Concurrent Checkpoint calls serialize.
func (bc *Blockchain) Checkpoint() error {
	bc.ckptMu.Lock()
	defer bc.ckptMu.Unlock()
	start := time.Now()
	defer mSnapshotSec.ObserveSince(start)
	// sealSeq waits out a seal in progress, whose txs have left the pool
	// but are not yet a block, so the snapshot's blocks and pool hold every
	// logged tx; poolMu blocks admission so no tx record can slip past the
	// rotation into the new segment while its tx sits in the snapshot pool.
	bc.sealSeq.Lock()
	bc.poolMu.Lock()
	bc.mu.RLock()
	unlock := func() {
		bc.mu.RUnlock()
		bc.poolMu.Unlock()
		bc.sealSeq.Unlock()
	}
	if bc.wal == nil {
		unlock()
		return errors.New("chain: checkpoint without a wal")
	}
	if err := bc.wal.Err(); err != nil {
		unlock()
		return fmt.Errorf("chain: wal unavailable: %w", err)
	}
	ticket, newSeq := bc.wal.rotateAsync()
	doc := snapshotDoc{
		Params: bc.params,
		Alloc:  bc.alloc,
		Blocks: bc.blocks,
		Pool:   bc.pool,
		Term:   bc.term,
		WALSeq: newSeq,
	}
	raw, err := json.Marshal(doc)
	unlock()
	if err != nil {
		return fmt.Errorf("chain: marshal snapshot: %w", err)
	}
	if err := ticket.wait(); err != nil {
		return fmt.Errorf("chain: checkpoint rotation: %w", err)
	}
	dir := bc.wal.Dir()
	if err := durable.WriteFileAtomic(filepath.Join(dir, snapshotName(newSeq)), raw, 0o600); err != nil {
		return err
	}
	obs.FlightRecord("chain", "checkpoint",
		fmt.Sprintf("snapshot %d (%d blocks, %d pending)", newSeq, len(doc.Blocks), len(doc.Pool)))
	return gcSnapshots(dir)
}

// gcSnapshots keeps the two newest snapshots and removes WAL segments no
// retained snapshot can need (those below the older retained one).
func gcSnapshots(dir string) error {
	snaps, err := listSnapshots(dir)
	if err != nil {
		return err
	}
	for _, seq := range snaps[:max(0, len(snaps)-2)] {
		if err := os.Remove(filepath.Join(dir, snapshotName(seq))); err != nil {
			return err
		}
	}
	if len(snaps) < 2 {
		return nil
	}
	older := snaps[len(snaps)-2]
	_, err = removeSegmentsBelow(dir, older)
	return err
}

// sameBlock compares a replayed block with the stored one: header hash and
// seal (receipt errors included — the failure surface is part of history).
func sameBlock(replayed, stored *Block) error {
	rh, err := replayed.HeaderHash()
	if err != nil {
		return err
	}
	sh, err := stored.HeaderHash()
	if err != nil {
		return err
	}
	if rh != sh {
		return fmt.Errorf("header hash %s != stored %s", rh, sh)
	}
	if !bytes.Equal(replayed.Seal, stored.Seal) {
		return errors.New("seal differs (different authority?)")
	}
	return nil
}
