package chain

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"tradefl/internal/durable"
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
	_, err = durable.ScanFrames(f, func(p []byte) error {
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
