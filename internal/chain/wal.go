package chain

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sync"
	"time"
)

// Write-ahead log: every accepted transaction and every sealed block is
// framed (length + CRC-32C, see appendFrame) and fsynced before the
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
// The log is one file, wal.log, and the chain's whole durable state: its
// first record is the genesis record and recovery replays it from there
// (recover.go).

// WAL errors.
var (
	// ErrWALClosed is returned for appends after Close.
	ErrWALClosed = errors.New("chain: wal closed")
	// ErrWALAborted is returned for operations after Abort — the crash
	// simulation hook chaos runs use to model kill -9.
	ErrWALAborted = errors.New("chain: wal aborted")
	// ErrWALCorrupt marks a log whose damage is not a torn tail: a
	// checksum-valid record that does not decode or replay, or (converting
	// an old directory) a torn frame in a non-final segment. Recovery
	// refuses to guess past it.
	ErrWALCorrupt = errors.New("chain: wal corrupt")
)

// walRec is one logged operation.
type walRec struct {
	// Kind is "genesis" (the log's first record), "tx" (mempool accept),
	// "block" (sealed block) or "term" (validator fencing-term bump on
	// promotion).
	Kind    string       `json:"kind"`
	Genesis *genesisRec  `json:"genesis,omitempty"`
	Tx      *Transaction `json:"tx,omitempty"`
	Block   *Block       `json:"block,omitempty"`
	Term    uint64       `json:"term,omitempty"`
}

// genesisRec is what newBlockchain needs, plus the genesis block replay
// must reproduce (its Sealer and seal name the authority).
type genesisRec struct {
	Params ContractParams `json:"params"`
	Alloc  GenesisAlloc   `json:"alloc"`
	Block  *Block         `json:"block"`
}

const (
	recGenesis = "genesis"
	recTx      = "tx"
	recBlock   = "block"
	recTerm    = "term"
)

// logName is the log's file name inside a chain directory.
const logName = "wal.log"

// walOp is one queue entry for the syncer: one encoded frame to append,
// or none for a Sync barrier.
type walOp struct {
	frame []byte
	rec   *walRec
	done  chan error // non-nil when a caller waits for durability
}

// WAL is the chain's write-ahead log. Appends are safe for concurrent use;
// exactly one syncer goroutine touches the file, so writes and fsyncs
// happen in queue order.
type WAL struct {
	mu        sync.Mutex
	f         *os.File
	size      int64 // bytes written
	syncedOff int64 // bytes fsynced
	zeroedTo  int64 // zero-filled allocation frontier (≥ size; syncer-owned)
	queue     []walOp
	err       error // sticky; set on the first IO failure or Abort
	closed    bool

	kick chan struct{}
	done chan struct{}

	// observer, when set, receives every record after it became durable,
	// in log order, from the syncer goroutine, with the payload bytes the
	// log holds for it. Standby replication and the crash soak's
	// durability tracker hook in here.
	observer func(rec walRec, payload []byte)
}

// openWAL reopens the log at path for append. size must be the file's
// current length (everything in it is assumed durable — recovery truncates
// torn tails before handing the file over).
func openWAL(path string, size int64) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("chain: open wal: %w", err)
	}
	w := &WAL{
		f:         f,
		size:      size,
		syncedOff: size,
		zeroedTo:  size,
		kick:      make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	go w.syncer()
	return w, nil
}

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

// OnDurable installs fn as the WAL's post-durability observer, replacing
// any prior observer, a Replicator's included. It must be set before the
// chain serves traffic: the syncer goroutine reads it without a lock.
func (w *WAL) OnDurable(fn func(DurableEvent)) {
	w.observer = func(rec walRec, _ []byte) {
		fn(DurableEvent{Kind: rec.Kind, Tx: rec.Tx, Block: rec.Block, Term: rec.Term})
	}
}

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
	default: // a genesis or term record
		payload, err = json.Marshal(rec)
	}
	if err != nil {
		return nil, fmt.Errorf("chain: marshal wal record: %w", err)
	}
	return appendFrame(nil, payload), nil
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

// enqueue queues a pre-encoded frame for the next group commit and returns
// a ticket to wait on. Callers serialize enqueues with the chain lock so
// log order equals state-machine order.
func (w *WAL) enqueue(frame []byte, rec walRec) *walTicket {
	t := &walTicket{ch: make(chan error, 1)}
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		t.ch <- err
		return t
	}
	w.queue = append(w.queue, walOp{frame: frame, rec: &rec, done: t.ch})
	w.mu.Unlock()
	w.wake()
	return t
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

// Close drains the queue, fsyncs, and closes the log file.
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
		// Trim the zero-fill allocation so the closed log ends on the last
		// record, then close.
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
// the log back to its last fsync — the bytes no caller was told are
// durable. It returns the offset the log was truncated to.
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
// wakes waiters, and feeds the observer.
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
			w.commit(batch)
		}
	}
}

// walExtendChunk is the zero-fill allocation step: the syncer materializes
// zeros this far ahead of the write frontier (one full fsync per chunk) so
// the hundreds of group commits that land inside the chunk rewrite already-
// allocated bytes and SyncData never has to journal a size change.
const walExtendChunk = 256 << 10

// commit durably appends the batch's frames with one write and one fsync,
// then acknowledges and observes its ops.
func (w *WAL) commit(batch []walOp) {
	var buf []byte
	recs := 0
	for _, op := range batch {
		buf = append(buf, op.frame...)
		if op.rec != nil {
			recs++
		}
	}
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
			werr = syncData(f)
			mWALFsyncSec.ObserveSince(start)
			mWALFsyncs.Inc()
		}
		ioErr = werr
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
	for _, op := range batch {
		if op.done != nil {
			op.done <- ioErr
		}
	}
	if ioErr == nil && w.observer != nil {
		for _, op := range batch {
			if op.rec != nil {
				// The logged payload is the frame without its header.
				w.observer(*op.rec, op.frame[frameHeaderSize:])
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
	if err := zeroExtend(f, w.zeroedTo, newTo); err != nil {
		return err
	}
	w.zeroedTo = newTo
	return nil
}

// Frame layout: an 8-byte header followed by the payload.
//
//	bytes 0..3  little-endian uint32 payload length
//	bytes 4..7  little-endian uint32 CRC-32 (Castagnoli) of the payload
//
// A frame is valid only if the full payload is present and its checksum
// matches. Anything else — a short header, a short payload, a checksum
// mismatch — is a torn tail: the writer was killed mid-append and the
// bytes carry no durable record.
const frameHeaderSize = 8

// maxFrameSize bounds a single record; a length field above it is treated
// as corruption rather than an attempt to allocate gigabytes.
const maxFrameSize = 32 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errTornTail marks a frame that was not completely written: the scan
// stopped there, and everything from that offset on is garbage.
var errTornTail = errors.New("chain: torn wal frame tail")

// appendFrame encodes payload as one frame into buf (appending) and
// returns the extended slice.
//
// payload must be non-empty: an empty payload frames to eight zero bytes
// (CRC-32C of nothing is zero), which is indistinguishable from the
// zero-filled pre-allocation the log writes ahead of its frontier and is
// read back by scanFrames as a clean end of log, not a record.
func appendFrame(buf, payload []byte) []byte {
	if len(payload) == 0 {
		panic("chain: empty frame payload is reserved as the end-of-log marker")
	}
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// scanFrames reads frames from r, invoking fn with each complete, checksum-
// valid payload (the slice is only valid during the call). It returns the
// byte offset of the end of the last valid frame and, when the stream ends
// in an incomplete or corrupt frame, errTornTail: recovery truncates there,
// a read-only view stops there.
//
// An fn error aborts the scan and is returned verbatim with the offset of
// the end of the offending frame.
func scanFrames(r io.Reader, fn func(payload []byte) error) (int64, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var clean int64
	var hdr [frameHeaderSize]byte
	var payload []byte
	for {
		n, err := io.ReadFull(br, hdr[:])
		if err == io.EOF {
			return clean, nil // clean end on a frame boundary
		}
		if err == io.ErrUnexpectedEOF {
			return clean, fmt.Errorf("%w: %d header bytes at offset %d", errTornTail, n, clean)
		}
		if err != nil {
			return clean, err
		}
		size := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if size == 0 && want == 0 {
			// An all-zero header is pre-extended, never-written space (see
			// zeroExtend). No real record is empty, so this is a clean end
			// of log, not a tear.
			return clean, nil
		}
		if size > maxFrameSize {
			return clean, fmt.Errorf("%w: frame length %d exceeds limit at offset %d", errTornTail, size, clean)
		}
		if cap(payload) < int(size) {
			payload = make([]byte, size)
		}
		payload = payload[:size]
		if _, err := io.ReadFull(br, payload); err != nil {
			return clean, fmt.Errorf("%w: short payload at offset %d", errTornTail, clean)
		}
		if got := crc32.Checksum(payload, crcTable); got != want {
			return clean, fmt.Errorf("%w: checksum mismatch at offset %d", errTornTail, clean)
		}
		end := clean + int64(frameHeaderSize) + int64(size)
		if fn != nil {
			if err := fn(payload); err != nil {
				return end, err
			}
		}
		clean = end
	}
}

// truncateTornTail scans the file at path, cuts and fsyncs away what lies
// past the last valid frame (a torn frame or zero-fill padding) and returns
// the bytes removed; calling it again is a no-op (idempotent recovery).
func truncateTornTail(path string, fn func(payload []byte) error) (removed int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	clean, scanErr := scanFrames(f, fn)
	if scanErr != nil && !errors.Is(scanErr, errTornTail) {
		return 0, scanErr
	}
	removed = st.Size() - clean
	if removed == 0 {
		return 0, nil
	}
	if err := f.Truncate(clean); err != nil {
		return 0, fmt.Errorf("chain: truncate torn tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("chain: sync after truncate: %w", err)
	}
	return removed, nil
}

// zeroExtend materializes zeros in [from, to) of f and fsyncs, moving the
// allocated file size past the write frontier. Rewriting those zeros later
// changes no metadata, so a following syncData is a pure data flush — no
// journal commit. The zeros read as a clean end of log (see scanFrames),
// so a crash anywhere in this scheme stays recoverable.
func zeroExtend(f *os.File, from, to int64) error {
	if to <= from {
		return nil
	}
	zeros := make([]byte, 64<<10)
	for off := from; off < to; {
		n := min(int64(len(zeros)), to-off)
		if _, err := f.WriteAt(zeros[:n], off); err != nil {
			return fmt.Errorf("chain: zero-extend: %w", err)
		}
		off += n
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("chain: zero-extend sync: %w", err)
	}
	return nil
}
