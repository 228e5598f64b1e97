package chain

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"tradefl/internal/durable"
	"tradefl/internal/obs"
)

// Conversion of the directory format that predates the one log: full-chain
// snapshot documents (snap-NNNNNNNN.json) over a segmented log
// (wal-NNNNNNNN.seg). This file is the only reader of that format.

// snapshotDoc is the old snapshot document.
type snapshotDoc struct {
	Params ContractParams `json:"params"`
	Alloc  GenesisAlloc   `json:"alloc"`
	Blocks []*Block       `json:"blocks"`
	Pool   []Transaction  `json:"pool,omitempty"`
	Term   uint64         `json:"term,omitempty"`
	// WALSeq is the first segment holding records newer than the snapshot.
	WALSeq uint64 `json:"walSeq"`
}

// Old-format file names. Sequence numbers are zero-padded to eight digits,
// so a glob's lexical order is sequence order.
const (
	legacySnapGlob = "snap-*.json"
	legacySegGlob  = "wal-*.seg"
	legacySegName  = "wal-%08d.seg"
)

// convertLegacy builds in memory the log an old-format directory stands
// for. The newest snapshot becomes the records it compacts — genesis, then
// each block's txs followed by the block, then the term, then the pool —
// and the intact frames of the segments from its WALSeq on follow. Only
// the last segment may end torn; a damaged snapshot is an error. The
// result is replayed like any log, so nothing in it is trusted. A
// directory without a snapshot yields ErrNoLog.
func convertLegacy(dir string) ([]byte, error) {
	snaps, _ := filepath.Glob(filepath.Join(dir, legacySnapGlob)) // the pattern is valid
	if len(snaps) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoLog, dir)
	}
	newest := snaps[len(snaps)-1]
	raw, err := os.ReadFile(newest)
	if err != nil {
		return nil, err
	}
	var doc snapshotDoc
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Blocks) == 0 {
		return nil, fmt.Errorf("%w: snapshot %s: undecodable or without genesis (%v)", ErrWALCorrupt, newest, err)
	}
	var log []byte
	emit := func(rec walRec) { // keeps the first encoding error in err
		if err == nil {
			var frame []byte
			frame, err = encodeWalRec(rec)
			log = append(log, frame...)
		}
	}
	emit(walRec{Kind: recGenesis, Genesis: &genesisRec{Params: doc.Params, Alloc: doc.Alloc, Block: doc.Blocks[0]}})
	for _, b := range doc.Blocks[1:] {
		for i := range b.Txs {
			emit(walRec{Kind: recTx, Tx: &b.Txs[i]})
		}
		emit(walRec{Kind: recBlock, Block: b})
	}
	emit(walRec{Kind: recTerm, Term: doc.Term})
	for i := range doc.Pool {
		emit(walRec{Kind: recTx, Tx: &doc.Pool[i]})
	}
	if err != nil {
		return nil, err
	}
	copyFrame := func(payload []byte) error {
		log = durable.AppendFrame(log, payload)
		return nil
	}
	for seq := doc.WALSeq; ; seq++ {
		f, err := os.Open(filepath.Join(dir, fmt.Sprintf(legacySegName, seq)))
		if errors.Is(err, fs.ErrNotExist) {
			return log, nil
		}
		if err != nil {
			return nil, err
		}
		_, err = durable.ScanFrames(f, copyFrame)
		f.Close()
		if errors.Is(err, durable.ErrTornTail) {
			if _, serr := os.Stat(filepath.Join(dir, fmt.Sprintf(legacySegName, seq+1))); serr == nil {
				return nil, fmt.Errorf("%w: torn tail in non-final segment %d", ErrWALCorrupt, seq)
			}
			return log, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// removeLegacy deletes the old-format files of a directory whose log is
// already in place.
func removeLegacy(dir string) error {
	snaps, _ := filepath.Glob(filepath.Join(dir, legacySnapGlob)) // the patterns are valid
	segs, _ := filepath.Glob(filepath.Join(dir, legacySegGlob))
	old := append(snaps, segs...)
	for _, path := range old {
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	if len(old) == 0 {
		return nil
	}
	obs.FlightRecord("chain", "legacy-converted", fmt.Sprintf("%s: removed %d old-format files", dir, len(old)))
	return durable.SyncDir(dir)
}
