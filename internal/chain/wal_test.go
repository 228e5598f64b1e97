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

// scanSegment decodes every record of one segment file.
func scanSegment(t *testing.T, path string) []walRec {
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
	dir := t.TempDir()
	w, err := createWAL(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 20; i++ {
		if err := w.Append(walRec{Kind: recTerm, Term: i}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	recs := scanSegment(t, filepath.Join(dir, segmentName(1)))
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
	dir := t.TempDir()
	w, err := createWAL(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
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
	recs := scanSegment(t, filepath.Join(dir, segmentName(1)))
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

func TestWALRotateSplitsSegments(t *testing.T) {
	dir := t.TempDir()
	w, err := createWAL(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walRec{Kind: recTerm, Term: 1}); err != nil {
		t.Fatal(err)
	}
	next, err := w.Rotate()
	if err != nil || next != 2 {
		t.Fatalf("rotate: next=%d err=%v", next, err)
	}
	if err := w.Append(walRec{Kind: recTerm, Term: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := scanSegment(t, filepath.Join(dir, segmentName(1))); len(got) != 1 || got[0].Term != 1 {
		t.Fatalf("segment 1: %+v", got)
	}
	if got := scanSegment(t, filepath.Join(dir, segmentName(2))); len(got) != 1 || got[0].Term != 2 {
		t.Fatalf("segment 2: %+v", got)
	}
}

func TestWALAbortFailsPendingAndFutureAppends(t *testing.T) {
	dir := t.TempDir()
	w, err := createWAL(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walRec{Kind: recTerm, Term: 1}); err != nil {
		t.Fatal(err)
	}
	cut, err := w.Abort()
	if err != nil {
		t.Fatalf("abort: %v", err)
	}
	st, err := os.Stat(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != cut {
		t.Fatalf("segment size %d after abort, want %d", st.Size(), cut)
	}
	if err := w.Append(walRec{Kind: recTerm, Term: 2}); !errors.Is(err, ErrWALAborted) {
		t.Fatalf("append after abort: %v, want ErrWALAborted", err)
	}
	// The synced record survived the abort.
	if got := scanSegment(t, filepath.Join(dir, segmentName(1))); len(got) != 1 || got[0].Term != 1 {
		t.Fatalf("post-abort segment: %+v", got)
	}
}

// TestWALAbortKeepsAcknowledged races Abort against appenders: a group
// commit already in flight when Abort starts finishes its fsync and
// acknowledges its records, so the cut must not take them back. Every
// record whose Append returned nil must survive in the segment.
func TestWALAbortKeepsAcknowledged(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		dir := t.TempDir()
		w, err := createWAL(dir, 1)
		if err != nil {
			t.Fatal(err)
		}
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
		for _, rec := range scanSegment(t, filepath.Join(dir, segmentName(1))) {
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

func TestWALRemoveSegmentsBelow(t *testing.T) {
	dir := t.TempDir()
	w, err := createWAL(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(walRec{Kind: recTerm, Term: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	removed, err := removeSegmentsBelow(dir, 3)
	if err != nil || removed != 2 {
		t.Fatalf("removed=%d err=%v, want 2 removed", removed, err)
	}
	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0] != 3 || seqs[1] != 4 {
		t.Fatalf("segments after GC: %v, want [3 4]", seqs)
	}
}
