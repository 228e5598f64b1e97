// Package durable provides the crash-safety primitives the settlement
// chain's persistence layer is built on: atomic whole-file replacement
// (temp file + fsync + rename + directory fsync) and a length-prefixed,
// CRC-framed record format with torn-tail detection, so a process killed
// at any byte offset leaves either a fully recoverable file or a tail
// that is provably garbage and can be truncated away.
//
// The framing is deliberately minimal — stdlib only, no compression, no
// schema — because the caller (internal/chain's write-ahead log) carries
// its own JSON payloads and replay-verifies everything it reads back; the
// frame layer only has to answer "was this record written completely?".
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

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

// MaxFrameSize bounds a single record; a length field above it is treated
// as corruption rather than an attempt to allocate gigabytes.
const MaxFrameSize = 32 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrTornTail marks a frame that was not completely written: the scan
// stopped there, and everything from that offset on is garbage.
var ErrTornTail = errors.New("durable: torn frame tail")

// AppendFrame encodes payload as one frame into buf (appending) and
// returns the extended slice. Use one buffer for a whole group-commit
// batch and hand it to the file in a single Write.
//
// payload must be non-empty: an empty payload frames to eight zero bytes
// (CRC-32C of nothing is zero), which is indistinguishable from the
// zero-filled pre-allocation a log writes ahead of its frontier and is
// read back by ScanFrames as a clean end of log, not a record.
func AppendFrame(buf, payload []byte) []byte {
	if len(payload) == 0 {
		panic("durable: empty frame payload is reserved as the end-of-log marker")
	}
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// FrameSize returns the on-disk size of a frame carrying n payload bytes.
func FrameSize(n int) int { return frameHeaderSize + n }

// ScanFrames reads frames from r, invoking fn with each complete, checksum-
// valid payload (the slice is only valid during the call). It returns the
// byte offset of the end of the last valid frame and, when the stream ends
// in an incomplete or corrupt frame, ErrTornTail — the caller decides
// whether a torn tail is recoverable (truncate the log's tail) or fatal (a
// file that must end cleanly).
//
// An fn error aborts the scan and is returned verbatim with the offset of
// the end of the offending frame.
func ScanFrames(r io.Reader, fn func(payload []byte) error) (int64, error) {
	br := newByteReader(r)
	var clean int64
	var hdr [frameHeaderSize]byte
	var payload []byte
	for {
		n, err := io.ReadFull(br, hdr[:])
		if err == io.EOF {
			return clean, nil // clean end on a frame boundary
		}
		if err == io.ErrUnexpectedEOF {
			return clean, fmt.Errorf("%w: %d header bytes at offset %d", ErrTornTail, n, clean)
		}
		if err != nil {
			return clean, err
		}
		size := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if size == 0 && want == 0 {
			// An all-zero header is pre-extended, never-written space (the
			// log zero-fills ahead of the write frontier so steady-state
			// flushes stay metadata-free). No real record is empty, so this
			// is a clean end of log, not a tear.
			return clean, nil
		}
		if size > MaxFrameSize {
			return clean, fmt.Errorf("%w: frame length %d exceeds limit at offset %d", ErrTornTail, size, clean)
		}
		if cap(payload) < int(size) {
			payload = make([]byte, size)
		}
		payload = payload[:size]
		if _, err := io.ReadFull(br, payload); err != nil {
			return clean, fmt.Errorf("%w: short payload at offset %d", ErrTornTail, clean)
		}
		if got := crc32.Checksum(payload, crcTable); got != want {
			return clean, fmt.Errorf("%w: checksum mismatch at offset %d", ErrTornTail, clean)
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

// newByteReader wraps r in a small buffered reader unless it already is
// one; ScanFrames does many tiny reads.
func newByteReader(r io.Reader) io.Reader {
	type buffered interface{ ReadByte() (byte, error) }
	if _, ok := r.(buffered); ok {
		return r
	}
	return &bufReader{r: r, buf: make([]byte, 0, 64<<10)}
}

// bufReader is a minimal buffering io.Reader (bufio.Reader would be fine;
// this avoids importing bufio into a package several hot paths link).
type bufReader struct {
	r   io.Reader
	buf []byte
	off int
}

func (b *bufReader) Read(p []byte) (int, error) {
	if b.off == len(b.buf) {
		b.buf = b.buf[:cap(b.buf)]
		n, err := b.r.Read(b.buf)
		b.buf = b.buf[:n]
		b.off = 0
		if n == 0 {
			return 0, err
		}
	}
	n := copy(p, b.buf[b.off:])
	b.off += n
	return n, nil
}

// TruncateTornTail scans the frames of the file at path and, if the file
// ends in a torn (incomplete or corrupt) final frame, truncates it back to
// the end of the last valid frame, fsyncing the result. It returns the
// number of bytes removed. Records before the tear are untouched; calling
// it again is a no-op (idempotent recovery).
func TruncateTornTail(path string, fn func(payload []byte) error) (removed int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	clean, scanErr := ScanFrames(f, fn)
	if scanErr != nil && !errors.Is(scanErr, ErrTornTail) {
		return 0, scanErr
	}
	removed = st.Size() - clean
	if removed == 0 {
		return 0, nil
	}
	// A clean scan that stopped short of the file size hit zero-fill
	// padding; a torn scan hit a partial frame. Either way everything past
	// the clean offset is not log content — drop it.
	if err := f.Truncate(clean); err != nil {
		return 0, fmt.Errorf("durable: truncate torn tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("durable: sync after truncate: %w", err)
	}
	return removed, nil
}

// ZeroExtend materializes zeros in [from, to) of f and fsyncs, moving the
// allocated file size past the caller's write frontier. Rewriting those
// zeros later changes no metadata, so a following SyncData is a pure data
// flush — no journal commit. The zeros themselves read as a clean end of
// log (see ScanFrames), so a crash anywhere in this scheme stays
// recoverable.
func ZeroExtend(f *os.File, from, to int64) error {
	if to <= from {
		return nil
	}
	zeros := make([]byte, 64<<10)
	for off := from; off < to; {
		n := int64(len(zeros))
		if off+n > to {
			n = to - off
		}
		if _, err := f.WriteAt(zeros[:n], off); err != nil {
			return fmt.Errorf("durable: zero-extend: %w", err)
		}
		off += n
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("durable: zero-extend sync: %w", err)
	}
	return nil
}

// WriteFileAtomic replaces the file at path with data in a crash-safe way:
// the bytes land in a temp file in the same directory, are fsynced, and
// only then renamed over path, followed by a directory fsync so the rename
// itself is durable. A crash at any point leaves either the old complete
// file or the new complete file — never a partial mix.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("durable: temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("durable: write %s: %w", tmpName, err)
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return fmt.Errorf("durable: chmod %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("durable: fsync %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("durable: close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("durable: rename: %w", err)
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so a preceding rename/create/remove in it is
// durable. Filesystems that do not support directory fsync report EINVAL
// or ENOTSUP; those are ignored (the rename is then as durable as the
// platform allows).
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
			return nil
		}
		return fmt.Errorf("durable: fsync dir: %w", err)
	}
	return nil
}
