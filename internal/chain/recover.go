package chain

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"tradefl/internal/obs"
)

// Recovery.
//
// A durable chain directory holds one file, wal.log: the CRC-framed record
// log of wal.go. Its first record is the genesis record (contract params,
// genesis allocation and the genesis block); every later record is an
// accepted tx, a sealed block or a fencing-term bump, in chain order.
// Recovery replays the whole log through one replayer, which re-executes
// every tx and re-seals every block, requiring each to hash as stored, so
// nothing on disk is trusted. A torn tail is truncated. A directory that
// holds the older snapshot-and-segment files instead of wal.log is
// refused and left untouched.

var recoverLog = obs.Component("chain.recover")

// ErrNoLog is returned when a recovery directory holds no log.
var ErrNoLog = errors.New("chain: no log in wal dir")

// errOldFormat is returned for a directory without wal.log that holds the
// format which predates it: full-chain snapshots (snap-NNNNNNNN.json) over
// a segmented log (wal-NNNNNNNN.seg). Opening it as fresh would write a
// new genesis beside the old chain.
var errOldFormat = errors.New("chain: wal dir holds the snapshot-and-segment format (snap-*.json, wal-*.seg) that predates wal.log, which this version does not read")

// ErrReplayMismatch is returned when a stored chain does not reproduce
// under replay, or when its genesis is not the one the caller asked for.
var ErrReplayMismatch = errors.New("chain: replay mismatch")

// OpenDurable opens (or initializes) a WAL-backed chain in dir. A fresh
// directory gets a new chain from params/alloc and a log holding its
// genesis record; a directory with prior state is recovered, and its
// genesis block must equal the one params, alloc and authority build, or
// OpenDurable fails with ErrReplayMismatch.
func OpenDurable(dir string, authority *Account, params ContractParams, alloc GenesisAlloc) (*Blockchain, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("chain: wal dir: %w", err)
	}
	fresh, err := NewBlockchain(authority, params, alloc)
	if err != nil {
		return nil, err
	}
	bc, err := recoverDir(dir, authority, math.MaxUint64)
	if errors.Is(err, ErrNoLog) {
		return initDurable(dir, fresh, params, alloc)
	}
	if err != nil {
		return nil, err
	}
	if err := sameBlock(bc.blocks[0], fresh.blocks[0]); err != nil {
		return nil, errors.Join(fmt.Errorf("%w: %s holds another genesis: %v", ErrReplayMismatch, dir, err), bc.CloseDurable())
	}
	return bc, nil
}

// Options has no fields. It and OpenDurableOpts remain only because the
// benchmark harness under bench/ still passes chain.Options{}; both go
// when that harness next changes (ROADMAP item 2).
type Options struct{}

// OpenDurableOpts is OpenDurable under another name, kept for the
// benchmark harness (see Options).
func OpenDurableOpts(dir string, authority *Account, params ContractParams, alloc GenesisAlloc, _ Options) (*Blockchain, error) {
	return OpenDurable(dir, authority, params, alloc)
}

// initDurable bootstraps a fresh durable chain: the log is written whole
// with its genesis record (temp file, fsync, rename), so a crash leaves
// either no log or a complete one, and then opened for append.
func initDurable(dir string, bc *Blockchain, params ContractParams, alloc GenesisAlloc) (*Blockchain, error) {
	genesis, err := encodeWalRec(walRec{Kind: recGenesis, Genesis: &genesisRec{Params: params, Alloc: alloc, Block: bc.blocks[0]}})
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, logName)
	if err := writeFileAtomic(path, genesis); err != nil {
		return nil, err
	}
	w, err := openWAL(path, int64(len(genesis)))
	if err != nil {
		return nil, err
	}
	bc.attachWAL(w)
	obs.FlightRecord("chain", "durable-init", "fresh chain in "+dir)
	return bc, nil
}

// writeFileAtomic creates the file at path holding data: the bytes land in
// a temp file in the same directory, are fsynced and renamed over path,
// and the directory is fsynced so the rename itself is durable. A crash at
// any point leaves either no file or the complete one.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*") // mode 0600
	if err != nil {
		return fmt.Errorf("chain: temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // a no-op after the rename
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	var dir *os.File
	if err == nil {
		dir, err = os.Open(filepath.Dir(path))
	}
	if err == nil {
		// Filesystems without directory fsync report EINVAL or ENOTSUP; the
		// rename is then as durable as the platform allows.
		if err = dir.Sync(); errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
			err = nil
		}
		dir.Close()
	}
	if err != nil {
		return fmt.Errorf("chain: write %s: %w", path, err)
	}
	return nil
}

// RecoverAt is point-in-time recovery: it rebuilds the chain exactly as
// of sealed block `height` — the same replay as OpenDurable's, ignoring every
// record from the next block's on — and returns it detached from the
// WAL: a read-only forensic view; sealing on it would fork the durable
// history.
func RecoverAt(dir string, authority *Account, height uint64) (*Blockchain, error) {
	return recoverDir(dir, authority, height)
}

// recoverDir is the shared recovery core: it replays up to block
// stopHeight. Only a full recovery (math.MaxUint64) writes the directory —
// it truncates a torn tail and reattaches the WAL for append; a
// point-in-time target leaves the directory untouched.
func recoverDir(dir string, authority *Account, stopHeight uint64) (*Blockchain, error) {
	attach := stopHeight == math.MaxUint64
	path := filepath.Join(dir, logName)
	if _, err := os.Stat(path); errors.Is(err, fs.ErrNotExist) {
		return nil, noLog(dir)
	} else if err != nil {
		return nil, err
	}
	start := time.Now()
	defer mRecoverSec.ObserveSince(start)
	r := &replayer{authority: authority, stop: stopHeight}
	var err error
	switch {
	case attach:
		// Truncate-and-replay in one pass; the tear (if any) is gone from
		// disk afterwards, which makes recovery idempotent.
		var removed int64
		if removed, err = truncateTornTail(path, r.replay); removed > 0 {
			recoverLog.Warn("truncated torn wal tail", "bytes", removed)
			obs.FlightRecord("chain", "wal-torn-tail", fmt.Sprintf("%d bytes truncated", removed))
		}
	default:
		var f *os.File
		if f, err = os.Open(path); err != nil {
			return nil, err
		}
		_, err = scanFrames(f, r.replay)
		f.Close()
		if errors.Is(err, errTornTail) {
			err = nil // read-only view: stop at the tear, leave the file alone
		}
	}
	if err != nil {
		return nil, err
	}
	bc := r.bc
	if bc == nil {
		return nil, fmt.Errorf("%w: %s has no genesis record", ErrWALCorrupt, path)
	}
	if !attach {
		if bc.Height() < stopHeight {
			return nil, fmt.Errorf("chain: no sealed block at height %d (durable history ends at %d)", stopHeight, bc.Height())
		}
		return bc, nil
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	w, err := openWAL(path, st.Size())
	if err != nil {
		return nil, err
	}
	bc.attachWAL(w)
	recoverLog.Info("recovered", "dir", dir, "height", bc.Height(), "pending", bc.PendingCount(), "term", bc.Term())
	return bc, nil
}

// noLog explains a directory without wal.log: errOldFormat when it holds
// old-format files, ErrNoLog otherwise. One glob matches both old name
// shapes, so a fresh directory costs one directory read.
func noLog(dir string) error {
	names, _ := filepath.Glob(filepath.Join(dir, "*-????????.*")) // the pattern is valid
	for _, name := range names {
		snap, _ := filepath.Match("snap-*.json", filepath.Base(name))
		seg, _ := filepath.Match("wal-*.seg", filepath.Base(name))
		if snap || seg {
			return fmt.Errorf("%w: %s", errOldFormat, dir)
		}
	}
	return fmt.Errorf("%w: %s", ErrNoLog, dir)
}

// replayer applies the log to a chain in log order; the genesis record
// builds the chain, and the block arm alone checks the point-in-time
// target.
type replayer struct {
	authority *Account
	bc        *Blockchain
	stop      uint64 // last block to apply
	done      bool   // a block past stop was reached; later records are ignored
}

// replay decodes and applies one logged payload.
func (r *replayer) replay(payload []byte) error {
	if r.done {
		return nil
	}
	var rec walRec
	if err := decodeWalRec(payload, &rec); err != nil {
		return fmt.Errorf("%w: undecodable record: %v", ErrWALCorrupt, err)
	}
	if err := r.apply(rec); err != nil {
		return fmt.Errorf("%w: %w", ErrWALCorrupt, err)
	}
	return nil
}

func (r *replayer) apply(rec walRec) error {
	if r.bc == nil && rec.Kind != recGenesis {
		return fmt.Errorf("%q record before the genesis record", rec.Kind)
	}
	switch rec.Kind {
	case recGenesis:
		g := rec.Genesis
		if r.bc != nil || g == nil || g.Block == nil {
			return errors.New("misplaced or empty genesis record")
		}
		bc, err := NewBlockchain(r.authority, g.Params, g.Alloc)
		if err != nil {
			return err
		}
		if err := sameBlock(bc.blocks[0], g.Block); err != nil {
			return fmt.Errorf("%w: genesis: %v", ErrReplayMismatch, err)
		}
		r.bc = bc
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
			return fmt.Errorf("block %d: %w", rec.Block.Height, err)
		}
	case recTerm:
		r.bc.setTerm(rec.Term)
	default:
		return fmt.Errorf("unknown record kind %q", rec.Kind)
	}
	return nil
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
