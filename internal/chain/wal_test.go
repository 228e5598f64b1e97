package chain

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// newTestWAL opens an empty log in a fresh directory and returns it with
// the log's path.
func newTestWAL(t *testing.T) (*WAL, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), logName)
	if err := os.WriteFile(path, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	w, err := openWAL(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	return w, path
}

// scanLog decodes every record of a log file.
func scanLog(t *testing.T, path string) []walRec {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []walRec
	_, err = scanFrames(f, func(p []byte) error {
		var rec walRec
		if err := json.Unmarshal(p, &rec); err != nil {
			return err
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		t.Fatalf("scan %s: %v", path, err)
	}
	return recs
}

func TestWALAppendDurableAndOrdered(t *testing.T) {
	w, path := newTestWAL(t)
	for i := uint64(1); i <= 20; i++ {
		if err := w.Append(walRec{Kind: recTerm, Term: i}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	recs := scanLog(t, path)
	if len(recs) != 20 {
		t.Fatalf("recovered %d records, want 20", len(recs))
	}
	for i, rec := range recs {
		if rec.Term != uint64(i+1) {
			t.Fatalf("record %d has term %d, want %d", i, rec.Term, i+1)
		}
	}
}

// TestWALGroupCommitConcurrent hammers the log from many goroutines; every
// acked record must be on disk exactly once, order within each goroutine
// preserved.
func TestWALGroupCommitConcurrent(t *testing.T) {
	w, path := newTestWAL(t)
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// Term encodes (goroutine, index) so order can be checked.
				if err := w.Append(walRec{Kind: recTerm, Term: uint64(g*1000 + i)}); err != nil {
					t.Errorf("worker %d append %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs := scanLog(t, path)
	if len(recs) != workers*per {
		t.Fatalf("recovered %d records, want %d", len(recs), workers*per)
	}
	lastPerWorker := map[int]int{}
	for _, rec := range recs {
		g, i := int(rec.Term)/1000, int(rec.Term)%1000
		if last, seen := lastPerWorker[g]; seen && i <= last {
			t.Fatalf("worker %d record %d appeared after %d", g, i, last)
		}
		lastPerWorker[g] = i
	}
}

// TestWALGroupCommitOneFsyncPerBacklog counts what group commit is for: an
// observer holds the syncer inside its first commit while K appends queue
// up, and once released the syncer must acknowledge all K with one write
// and one fsync. A syncer that commits one record per batch fails here
// with K fsyncs, whatever the machine's speed.
func TestWALGroupCommitOneFsyncPerBacklog(t *testing.T) {
	const k = 32
	w, path := newTestWAL(t)
	held, release := make(chan struct{}), make(chan struct{})
	var first sync.Once
	var observed atomic.Int64
	w.OnDurable(func(DurableEvent) {
		observed.Add(1)
		first.Do(func() {
			close(held)
			<-release
		})
	})
	if err := w.Append(walRec{Kind: recTerm, Term: 1}); err != nil {
		t.Fatal(err)
	}
	<-held

	var wg sync.WaitGroup
	for i := uint64(0); i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Append(walRec{Kind: recTerm, Term: 2 + i}); err != nil {
				t.Errorf("append %d: %v", i, err)
			}
		}()
	}
	for {
		w.mu.Lock()
		queued := len(w.queue)
		w.mu.Unlock()
		if queued == k {
			break
		}
		runtime.Gosched()
	}
	fsyncs, batches, records := mWALFsyncs.Value(), mWALBatch.Count(), mWALBatch.Sum()
	close(release)
	wg.Wait()

	if got := mWALFsyncs.Value() - fsyncs; got != 1 {
		t.Errorf("%d queued appends took %d fsyncs, want 1", k, got)
	}
	if got, sum := mWALBatch.Count()-batches, mWALBatch.Sum()-records; got != 1 || sum != k {
		t.Errorf("%d queued appends committed as %d batches of %v records in all, want 1 batch of %d", k, got, sum, k)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := observed.Load(); got != k+1 {
		t.Errorf("observer saw %d durable records, want %d", got, k+1)
	}
	if got := len(scanLog(t, path)); got != k+1 {
		t.Errorf("log holds %d records, want %d", got, k+1)
	}
}

func TestWALAbortFailsPendingAndFutureAppends(t *testing.T) {
	w, path := newTestWAL(t)
	if err := w.Append(walRec{Kind: recTerm, Term: 1}); err != nil {
		t.Fatal(err)
	}
	cut, err := w.Abort()
	if err != nil {
		t.Fatalf("abort: %v", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != cut {
		t.Fatalf("log size %d after abort, want %d", st.Size(), cut)
	}
	if err := w.Append(walRec{Kind: recTerm, Term: 2}); !errors.Is(err, ErrWALAborted) {
		t.Fatalf("append after abort: %v, want ErrWALAborted", err)
	}
	// The synced record survived the abort.
	if got := scanLog(t, path); len(got) != 1 || got[0].Term != 1 {
		t.Fatalf("post-abort log: %+v", got)
	}
}

// TestWALAbortKeepsAcknowledged races Abort against appenders: a group
// commit already in flight when Abort starts finishes its fsync and
// acknowledges its records, so the cut must not take them back. Every
// record whose Append returned nil must survive in the log.
func TestWALAbortKeepsAcknowledged(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		w, path := newTestWAL(t)
		var (
			acked atomic.Int64
			mu    sync.Mutex
			terms []uint64 // acknowledged records
			wg    sync.WaitGroup
		)
		for g := uint64(0); g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := uint64(1); ; k++ {
					term := g<<32 | k
					if err := w.Append(walRec{Kind: recTerm, Term: term}); err != nil {
						if !errors.Is(err, ErrWALAborted) {
							t.Errorf("append: %v", err)
						}
						return
					}
					mu.Lock()
					terms = append(terms, term)
					mu.Unlock()
					acked.Add(1)
				}
			}()
		}
		for acked.Load() < 40 {
			runtime.Gosched()
		}
		if _, err := w.Abort(); err != nil {
			t.Fatalf("abort: %v", err)
		}
		wg.Wait()
		kept := map[uint64]bool{}
		for _, rec := range scanLog(t, path) {
			kept[rec.Term] = true
		}
		for _, term := range terms {
			if !kept[term] {
				t.Fatalf("iteration %d: acknowledged record %#x cut by Abort (%d of %d acknowledged records kept)",
					iter, term, len(kept), len(terms))
			}
		}
	}
}

// Append logs rec and blocks until it is durable (one group commit).
func (w *WAL) Append(rec walRec) error {
	frame, err := encodeWalRec(rec)
	if err != nil {
		return err
	}
	return w.enqueue(frame, rec).wait()
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte("hello"),
		{0x00},                            // single zero byte is a real record; only the empty payload is reserved
		bytes.Repeat([]byte{0xAB}, 70000), // spans the scanner's buffer
		[]byte(`{"kind":"tx"}`),
	}
	var buf []byte
	for _, p := range payloads {
		buf = appendFrame(buf, p)
	}
	var got [][]byte
	off, err := scanFrames(bytes.NewReader(buf), func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if off != int64(len(buf)) {
		t.Fatalf("clean offset %d, want %d", off, len(buf))
	}
	if len(got) != len(payloads) {
		t.Fatalf("got %d frames, want %d", len(got), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
}

// TestTornTailEveryPrefix truncates a multi-frame stream at every byte
// offset and requires the scan to recover exactly the frames that were
// completely written — never a partial or corrupt one.
func TestTornTailEveryPrefix(t *testing.T) {
	var full []byte
	var ends []int64 // clean offsets after each frame
	for i := 0; i < 6; i++ {
		full = appendFrame(full, []byte(fmt.Sprintf("record-%d-%s", i, bytes.Repeat([]byte{byte(i)}, i*7))))
		ends = append(ends, int64(len(full)))
	}
	for cut := 0; cut <= len(full); cut++ {
		var n int
		off, err := scanFrames(bytes.NewReader(full[:cut]), func(p []byte) error {
			n++
			return nil
		})
		// The clean offset must be the largest frame end <= cut, and the
		// frame count the number of frames wholly inside the prefix.
		wantOff := int64(0)
		wantN := 0
		for i, e := range ends {
			if e <= int64(cut) {
				wantOff, wantN = e, i+1
			}
		}
		if off != wantOff || n != wantN {
			t.Fatalf("cut %d: got off=%d n=%d, want off=%d n=%d", cut, off, n, wantOff, wantN)
		}
		if int64(cut) == wantOff && err != nil {
			t.Fatalf("cut %d on boundary: unexpected error %v", cut, err)
		}
		if int64(cut) != wantOff && !errors.Is(err, errTornTail) {
			t.Fatalf("cut %d mid-frame: err = %v, want errTornTail", cut, err)
		}
	}
}

func TestScanRejectsCorruptPayload(t *testing.T) {
	var buf []byte
	buf = appendFrame(buf, []byte("good"))
	buf = appendFrame(buf, []byte("flipped"))
	buf[len(buf)-1] ^= 0xFF // corrupt last payload byte
	var n int
	off, err := scanFrames(bytes.NewReader(buf), func([]byte) error { n++; return nil })
	if !errors.Is(err, errTornTail) {
		t.Fatalf("err = %v, want errTornTail", err)
	}
	if n != 1 {
		t.Fatalf("delivered %d frames, want 1", n)
	}
	if off != int64(frameHeaderSize+4) {
		t.Fatalf("clean offset %d, want %d", off, frameHeaderSize+4)
	}
}

func TestScanRejectsOversizedLength(t *testing.T) {
	buf := appendFrame(nil, []byte("x"))
	buf[0], buf[1], buf[2], buf[3] = 0xFF, 0xFF, 0xFF, 0x7F // ~2GiB length
	_, err := scanFrames(bytes.NewReader(buf), nil)
	if !errors.Is(err, errTornTail) {
		t.Fatalf("err = %v, want errTornTail", err)
	}
}

func TestTruncateTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg")
	var buf []byte
	buf = appendFrame(buf, []byte("one"))
	buf = appendFrame(buf, []byte("two"))
	clean := len(buf)
	buf = append(buf, appendFrame(nil, []byte("three"))[:7]...) // torn append
	if err := os.WriteFile(path, buf, 0o600); err != nil {
		t.Fatal(err)
	}
	removed, err := truncateTornTail(path, nil)
	if err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if removed != int64(len(buf)-clean) {
		t.Fatalf("removed %d bytes, want %d", removed, len(buf)-clean)
	}
	st, _ := os.Stat(path)
	if st.Size() != int64(clean) {
		t.Fatalf("size %d after truncate, want %d", st.Size(), clean)
	}
	// Idempotent: a second pass removes nothing.
	removed, err = truncateTornTail(path, nil)
	if err != nil || removed != 0 {
		t.Fatalf("second truncate: removed=%d err=%v", removed, err)
	}
}

// TestZeroPaddingReadsAsCleanEOF covers the pre-extension scheme: records
// followed by zero-filled allocation must scan as a clean log ending at
// the last record, and truncateTornTail must trim the padding.
func TestZeroPaddingReadsAsCleanEOF(t *testing.T) {
	var buf []byte
	buf = appendFrame(buf, []byte("one"))
	buf = appendFrame(buf, []byte("two"))
	clean := int64(len(buf))
	padded := append(append([]byte(nil), buf...), make([]byte, 4096)...)
	var n int
	off, err := scanFrames(bytes.NewReader(padded), func([]byte) error { n++; return nil })
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if off != clean || n != 2 {
		t.Fatalf("clean offset %d (%d frames), want %d (2 frames)", off, n, clean)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "seg")
	if err := os.WriteFile(path, padded, 0o600); err != nil {
		t.Fatal(err)
	}
	removed, err := truncateTornTail(path, nil)
	if err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if removed != int64(len(padded))-clean {
		t.Fatalf("removed %d bytes, want %d", removed, int64(len(padded))-clean)
	}
	if st, _ := os.Stat(path); st.Size() != clean {
		t.Fatalf("size %d after trim, want %d", st.Size(), clean)
	}
}

// TestZeroExtend checks the allocation helper leaves readable zeros and
// that rewriting them in place produces a scannable log.
func TestZeroExtend(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := zeroExtend(f, 0, 128<<10); err != nil {
		t.Fatal(err)
	}
	if st, _ := f.Stat(); st.Size() != 128<<10 {
		t.Fatalf("size %d after extend, want %d", st.Size(), 128<<10)
	}
	frame := appendFrame(nil, []byte("rewrites pre-zeroed space"))
	if _, err := f.WriteAt(frame, 0); err != nil {
		t.Fatal(err)
	}
	if err := syncData(f); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	off, err := scanFrames(bytes.NewReader(raw), func(p []byte) error {
		got = append([]byte(nil), p...)
		return nil
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if off != int64(len(frame)) || string(got) != "rewrites pre-zeroed space" {
		t.Fatalf("scan stopped at %d with %q", off, got)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.json")
	if err := writeFileAtomic(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomic(path, []byte("v2-longer")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "v2-longer" {
		t.Fatalf("read back %q err=%v", got, err)
	}
	// No temp litter.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want 1: %v", len(entries), entries)
	}
}
