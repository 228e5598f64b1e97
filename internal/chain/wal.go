package chain

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tradefl/internal/durable"
	"tradefl/internal/obs"
)

// Write-ahead log: every accepted transaction and every sealed block is
// framed (length + CRC-32C, internal/durable) and fsynced before the
// operation is acknowledged. Durability therefore means exactly "the
// caller saw success": a kill -9 at any byte offset loses only operations
// whose callers never got an answer, and the torn tail the kill leaves
// behind is detected and truncated on the next open.
//
// The hot path stays fast through group commit: appends from any number of
// goroutines are queued to a single syncer goroutine that writes the whole
// backlog in one write(2) and one fsync(2), then wakes every waiter of the
// batch. While one fsync is in flight the next batch accumulates, so disk
// latency overlaps the CPU work of validating the next transactions and
// throughput converges to the in-memory rate under concurrency.
//
// The log is segmented (wal-NNNNNNNN.seg). A checkpoint rotates to a fresh
// segment through the same ordered queue, writes a full snapshot
// atomically, and then garbage-collects segments no retained snapshot
// needs (see recover.go for the snapshot/PITR lifecycle).

// WAL errors.
var (
	// ErrWALClosed is returned for appends after Close.
	ErrWALClosed = errors.New("chain: wal closed")
	// ErrWALAborted is returned for operations after Abort — the crash
	// simulation hook chaos runs use to model kill -9.
	ErrWALAborted = errors.New("chain: wal aborted")
	// ErrWALCorrupt marks a log whose damage is not a torn tail: a torn
	// frame in a non-final segment, or a checksum-valid record that does
	// not decode or replay. Recovery refuses to guess past it.
	ErrWALCorrupt = errors.New("chain: wal corrupt")
)

// walRec is one logged operation.
type walRec struct {
	// Kind is "tx" (mempool accept), "block" (sealed block) or "term"
	// (validator fencing-term bump on promotion).
	Kind  string       `json:"kind"`
	Tx    *Transaction `json:"tx,omitempty"`
	Block *Block       `json:"block,omitempty"`
	Term  uint64       `json:"term,omitempty"`
}

const (
	recTx    = "tx"
	recBlock = "block"
	recTerm  = "term"
)

// segmentName formats the on-disk name of segment seq.
func segmentName(seq uint64) string { return fmt.Sprintf("wal-%08d.seg", seq) }

// parseSegmentName extracts the sequence number from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listSegments returns the segment sequence numbers present in dir,
// ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSegmentName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// walOp is one queue entry for the syncer: encoded frames to append, or a
// segment rotation.
type walOp struct {
	frames []byte
	rec    *walRec
	rotate bool
	done   chan error // non-nil when a caller waits for durability
}

// WAL is the chain's write-ahead log. Appends are safe for concurrent use;
// exactly one syncer goroutine touches the file, so writes, fsyncs and
// rotations happen in queue order.
type WAL struct {
	dir string

	mu        sync.Mutex
	seq       uint64 // current segment
	f         *os.File
	size      int64 // bytes written to the current segment
	syncedOff int64 // bytes fsynced in the current segment
	zeroedTo  int64 // zero-filled allocation frontier (≥ size; syncer-owned)
	queue     []walOp
	err       error // sticky; set on the first IO failure or Abort
	closed    bool

	kick chan struct{}
	done chan struct{}

	// observer, when set, receives every record after it became durable,
	// in log order, from the syncer goroutine. Standby replication and the
	// crash soak's durability tracker hook in here.
	observer func(walRec)
}

// newWAL wraps an already-open segment file. size must be the file's
// current length (everything in it is assumed durable — recovery truncates
// torn tails before handing the file over).
func newWAL(dir string, seq uint64, f *os.File, size int64) *WAL {
	w := &WAL{
		dir:       dir,
		seq:       seq,
		f:         f,
		size:      size,
		syncedOff: size,
		zeroedTo:  size,
		kick:      make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	go w.syncer()
	return w
}

// createWAL starts a fresh log in dir at segment seq.
func createWAL(dir string, seq uint64) (*WAL, error) {
	f, err := os.OpenFile(filepath.Join(dir, segmentName(seq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600)
	if err != nil {
		return nil, fmt.Errorf("chain: create wal segment: %w", err)
	}
	if err := durable.SyncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return newWAL(dir, seq, f, 0), nil
}

// openWALSegment reopens the (already torn-tail-truncated) segment seq for
// append.
func openWALSegment(dir string, seq uint64, size int64) (*WAL, error) {
	f, err := os.OpenFile(filepath.Join(dir, segmentName(seq)), os.O_WRONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("chain: open wal segment: %w", err)
	}
	return newWAL(dir, seq, f, size), nil
}

// SetObserver installs the post-durability record observer. Must be set
// before the WAL is attached to a chain (it is read without a lock from
// the syncer goroutine).
func (w *WAL) SetObserver(fn func(walRec)) { w.observer = fn }

// DurableEvent mirrors one WAL record for observers outside this package:
// exactly the operations whose callers saw a durable acknowledgement, in
// log order. The crash-restart soak uses it to know what a recovery must
// reproduce.
type DurableEvent struct {
	Kind  string // DurableTx, DurableBlock or DurableTerm
	Tx    *Transaction
	Block *Block
	Term  uint64
}

// Exported record kinds as seen by OnDurable observers.
const (
	DurableTx    = recTx
	DurableBlock = recBlock
	DurableTerm  = recTerm
)

// OnDurable installs fn as the WAL's post-durability observer (replacing
// any prior observer, including a Replicator's). Same single-slot,
// set-before-serving contract as SetObserver.
func (w *WAL) OnDurable(fn func(DurableEvent)) {
	w.SetObserver(func(rec walRec) {
		fn(DurableEvent{Kind: rec.Kind, Tx: rec.Tx, Block: rec.Block, Term: rec.Term})
	})
}

// Dir returns the log directory.
func (w *WAL) Dir() string { return w.dir }

// Err returns the sticky IO error, if any.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// encodeWalRec renders rec as a single CRC-framed append.
func encodeWalRec(rec walRec) ([]byte, error) {
	var payload []byte
	var err error
	switch rec.Kind {
	case recTx:
		payload = append(make([]byte, 0, rec.Tx.sizeHint()+24), `{"kind":"tx","tx":`...)
		payload, err = appendTx(payload, rec.Tx, true)
		payload = append(payload, '}')
	case recBlock:
		payload = append(make([]byte, 0, rec.Block.sizeHint()+32), `{"kind":"block","block":`...)
		payload, err = appendBlock(payload, rec.Block, true)
		payload = append(payload, '}')
	default: // a term record
		payload, err = json.Marshal(rec)
	}
	if err != nil {
		return nil, fmt.Errorf("chain: marshal wal record: %w", err)
	}
	return durable.AppendFrame(nil, payload), nil
}

// walTicket is a pending durability acknowledgement.
type walTicket struct{ ch chan error }

// wait blocks until the record's group commit completed (or failed).
func (t *walTicket) wait() error {
	if t == nil {
		return nil
	}
	return <-t.ch
}

// enqueue queues pre-encoded frames for the next group commit and returns
// a ticket to wait on. Callers serialize enqueues with the chain lock so
// log order equals state-machine order.
func (w *WAL) enqueue(frames []byte, rec walRec) *walTicket {
	t := &walTicket{ch: make(chan error, 1)}
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		t.ch <- err
		return t
	}
	w.queue = append(w.queue, walOp{frames: frames, rec: &rec, done: t.ch})
	w.mu.Unlock()
	w.wake()
	return t
}

// Append logs rec and blocks until it is durable (one group commit).
func (w *WAL) Append(rec walRec) error {
	frames, err := encodeWalRec(rec)
	if err != nil {
		return err
	}
	return w.enqueue(frames, rec).wait()
}

// Sync blocks until everything queued before it is durable.
func (w *WAL) Sync() error {
	t := &walTicket{ch: make(chan error, 1)}
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.queue = append(w.queue, walOp{done: t.ch})
	w.mu.Unlock()
	w.wake()
	return t.wait()
}

// rotateAsync enqueues a segment rotation and returns a ticket plus the
// sequence number of the new segment. The rotation goes through the
// ordered queue, so every record enqueued before it lands in the old
// segment and every one after in the new — callers (Checkpoint) enqueue
// while holding the chain lock, making the snapshot/segment boundary
// exact. Rotations must be serialized by the caller (the checkpoint lock);
// a sticky error is delivered on the ticket.
func (w *WAL) rotateAsync() (*walTicket, uint64) {
	t := &walTicket{ch: make(chan error, 1)}
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		t.ch <- err
		return t, 0
	}
	next := w.seq + 1
	w.queue = append(w.queue, walOp{rotate: true, done: t.ch})
	w.mu.Unlock()
	w.wake()
	return t, next
}

// Rotate seals the current segment (fsynced) and switches appends to the
// next one, returning the new segment's sequence number.
func (w *WAL) Rotate() (uint64, error) {
	t, next := w.rotateAsync()
	if err := t.wait(); err != nil {
		return 0, err
	}
	return next, nil
}

// Close drains the queue, fsyncs, and closes the segment file.
func (w *WAL) Close() error {
	err := w.Sync()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return err
	}
	w.closed = true
	if w.err == nil {
		w.err = ErrWALClosed
	}
	w.mu.Unlock()
	w.wake()
	<-w.done
	w.mu.Lock()
	f := w.f
	w.f = nil
	size := w.size
	padded := w.zeroedTo > size
	w.mu.Unlock()
	if f != nil {
		// Trim the zero-fill allocation so the closed segment ends on the
		// last record, then close.
		if padded && err == nil {
			if terr := f.Truncate(size); terr != nil {
				err = terr
			} else if serr := f.Sync(); serr != nil {
				err = serr
			}
		}
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if errors.Is(err, ErrWALClosed) {
		err = nil
	}
	return err
}

// Abort simulates kill -9: it marks the log dead, fails every queued and
// future append, closes the file descriptor without flushing, and cuts
// the segment back to its last fsync — the bytes no caller was told are
// durable. It returns the offset the segment was truncated to.
func (w *WAL) Abort() (int64, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, ErrWALClosed
	}
	w.closed = true
	w.err = ErrWALAborted
	queue := w.queue
	w.queue = nil
	w.mu.Unlock()
	for _, op := range queue {
		if op.done != nil {
			op.done <- ErrWALAborted
		}
	}
	w.wake()
	// A group commit already past its error check finishes its fsync and
	// acknowledges its waiters; only after the syncer is joined is the
	// synced offset final.
	<-w.done
	w.mu.Lock()
	f := w.f
	w.f = nil
	cut := w.syncedOff
	w.mu.Unlock()
	if f != nil {
		// Past the synced offset lie an unsynced write and the zero-fill
		// allocation, neither of them acknowledged log content.
		err := f.Truncate(cut)
		f.Close()
		if err != nil {
			return 0, err
		}
	}
	return cut, nil
}

// wake nudges the syncer without blocking.
func (w *WAL) wake() {
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// syncer is the single goroutine that owns the file: it drains the queue
// in batches, performing one write and one fsync per batch (group commit),
// handles rotations in order, wakes waiters, and feeds the observer.
func (w *WAL) syncer() {
	defer close(w.done)
	for {
		<-w.kick
		for {
			// The append that kicked us made this goroutine next-to-run,
			// ahead of every already-runnable appender. Yield one scheduler
			// pass so the whole runnable cohort gets to validate and enqueue
			// first — on a single-P runtime this is what turns a stream of
			// one-record commits into real group commits.
			runtime.Gosched()
			w.mu.Lock()
			n := len(w.queue)
			if n == 0 {
				closed := w.closed
				w.mu.Unlock()
				if closed {
					return
				}
				break
			}
			batch := w.queue
			w.queue = nil
			w.mu.Unlock()
			w.processBatch(batch)
		}
	}
}

// processBatch writes the frame runs of batch with one write+fsync per
// run (a rotation splits runs), then acknowledges and observes.
func (w *WAL) processBatch(batch []walOp) {
	i := 0
	for i < len(batch) {
		if batch[i].rotate {
			w.doRotate(batch[i])
			i++
			continue
		}
		j := i
		var buf []byte
		for j < len(batch) && !batch[j].rotate {
			buf = append(buf, batch[j].frames...)
			j++
		}
		w.commitRun(batch[i:j], buf)
		i = j
	}
}

// walExtendChunk is the zero-fill allocation step: the syncer materializes
// zeros this far ahead of the write frontier (one full fsync per chunk) so
// the hundreds of group commits that land inside the chunk rewrite already-
// allocated bytes and SyncData never has to journal a size change.
const walExtendChunk = 256 << 10

// commitRun durably appends buf and acknowledges the run's ops.
func (w *WAL) commitRun(run []walOp, buf []byte) {
	w.mu.Lock()
	f := w.f
	off := w.size
	ioErr := w.err
	w.mu.Unlock()
	if ioErr == nil && ioErr != ErrWALClosed && f == nil {
		ioErr = ErrWALClosed
	}
	var wrote int64
	if ioErr == nil && len(buf) > 0 {
		werr := w.extendTo(f, off+int64(len(buf)))
		if werr == nil {
			var n int
			n, werr = f.WriteAt(buf, off)
			wrote = int64(n)
		}
		if werr == nil {
			start := time.Now()
			werr = durable.SyncData(f)
			mWALFsyncSec.ObserveSince(start)
			mWALFsyncs.Inc()
		}
		ioErr = werr
	}
	recs := 0
	for _, op := range run {
		if op.rec != nil {
			recs++
		}
	}
	w.mu.Lock()
	w.size += wrote
	if ioErr == nil {
		w.syncedOff = w.size
	} else if w.err == nil {
		w.err = fmt.Errorf("chain: wal io: %w", ioErr)
		ioErr = w.err
	}
	w.mu.Unlock()
	if ioErr == nil {
		mWALBytes.Add(int64(len(buf)))
		if recs > 0 {
			mWALBatch.Observe(float64(recs))
		}
	}
	for _, op := range run {
		if op.done != nil {
			op.done <- ioErr
		}
	}
	if ioErr == nil && w.observer != nil {
		for _, op := range run {
			if op.rec != nil {
				w.observer(*op.rec)
			}
		}
	}
}

// extendTo zero-fills ahead of the write frontier so [0, need) is inside
// allocated space. Syncer-only; the zeros become durable (full fsync)
// before any record bytes land on them.
func (w *WAL) extendTo(f *os.File, need int64) error {
	if need <= w.zeroedTo {
		return nil
	}
	newTo := (need + walExtendChunk - 1) / walExtendChunk * walExtendChunk
	if err := durable.ZeroExtend(f, w.zeroedTo, newTo); err != nil {
		return err
	}
	w.zeroedTo = newTo
	return nil
}

// doRotate fsyncs and closes the current segment and opens the next one.
func (w *WAL) doRotate(op walOp) {
	w.mu.Lock()
	f := w.f
	seq := w.seq
	size := w.size
	stickyErr := w.err
	w.mu.Unlock()
	var err error
	if stickyErr != nil {
		err = stickyErr
	} else {
		// Trim the zero-fill allocation past the last record so the sealed
		// segment ends exactly on a frame boundary.
		if terr := f.Truncate(size); terr != nil {
			err = terr
		} else if ferr := f.Sync(); ferr != nil {
			err = ferr
		} else if cerr := f.Close(); cerr != nil {
			err = cerr
		} else {
			var nf *os.File
			nf, err = os.OpenFile(filepath.Join(w.dir, segmentName(seq+1)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600)
			if err == nil {
				err = durable.SyncDir(w.dir)
			}
			if err == nil {
				w.mu.Lock()
				w.f = nf
				w.seq = seq + 1
				w.size = 0
				w.syncedOff = 0
				w.zeroedTo = 0
				w.mu.Unlock()
			}
		}
	}
	if err != nil && stickyErr == nil {
		w.mu.Lock()
		if w.err == nil {
			w.err = fmt.Errorf("chain: wal rotate: %w", err)
		}
		err = w.err
		w.mu.Unlock()
	}
	if op.done != nil {
		op.done <- err
	}
}

// removeSegmentsBelow deletes every segment with sequence < keep. Called
// after a checkpoint made them redundant.
func removeSegmentsBelow(dir string, keep uint64) (int, error) {
	seqs, err := listSegments(dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, seq := range seqs {
		if seq >= keep {
			continue
		}
		if err := os.Remove(filepath.Join(dir, segmentName(seq))); err != nil {
			return removed, err
		}
		removed++
	}
	if removed > 0 {
		if err := durable.SyncDir(dir); err != nil {
			return removed, err
		}
		obs.FlightRecord("chain", "wal-gc", fmt.Sprintf("removed %d segments below %d", removed, keep))
	}
	return removed, nil
}
