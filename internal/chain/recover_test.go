package chain

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tradefl/internal/durable"
	"tradefl/internal/randx"
)

// durableFixture is the WAL-backed sibling of fixture: the account set and
// genesis are derived from a fixed seed so the same authority can recover
// the directory across simulated crashes.
type durableFixture struct {
	dir       string
	bc        *Blockchain
	authority *Account
	accounts  []*Account
	params    ContractParams
	alloc     GenesisAlloc
}

func newDurableFixture(t testing.TB, n int) *durableFixture {
	t.Helper()
	src := randx.New(42)
	authority, err := NewAccount(src)
	if err != nil {
		t.Fatal(err)
	}
	accounts := make([]*Account, n)
	members := make([]Address, n)
	bits := make([]float64, n)
	rho := make([][]float64, n)
	alloc := GenesisAlloc{}
	for i := range accounts {
		accounts[i], err = NewAccount(src)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = accounts[i].Address()
		bits[i] = 2e10
		alloc[members[i]] = 1_000_000_000
		rho[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			rho[i][j], rho[j][i] = 0.1, 0.1
		}
	}
	params := ContractParams{Members: members, Rho: rho, DataBits: bits, Gamma: 2e-8, Lambda: 0.1}
	dir := t.TempDir()
	bc, err := OpenDurable(dir, authority, params, alloc)
	if err != nil {
		t.Fatal(err)
	}
	return &durableFixture{dir: dir, bc: bc, authority: authority, accounts: accounts, params: params, alloc: alloc}
}

// submit signs and submits one tx from account idx with the next nonce.
func (f *durableFixture) submit(t testing.TB, idx int, fn Function, args any, value Wei) {
	t.Helper()
	tx, err := NewTransaction(f.accounts[idx], f.bc.Nonce(f.accounts[idx].Address()), fn, args, value)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.bc.SubmitTx(*tx); err != nil {
		t.Fatalf("SubmitTx: %v", err)
	}
}

// crash simulates kill -9 (WAL fd closed, unsynced tail dropped) and
// recovers a fresh chain from the directory.
func (f *durableFixture) crash(t *testing.T) {
	t.Helper()
	if _, err := f.bc.WAL().Abort(0); err != nil {
		t.Fatalf("abort: %v", err)
	}
	bc, err := Recover(f.dir, f.authority)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	f.bc = bc
}

func TestDurableRoundTripAcrossCrash(t *testing.T) {
	f := newDurableFixture(t, 3)
	for i := range f.accounts {
		f.submit(t, i, FnDepositSubmit, nil, MinDeposit(f.params, i, 5e9))
	}
	if _, err := f.bc.SealBlock(); err != nil {
		t.Fatal(err)
	}
	f.submit(t, 0, FnContributionSubmit, Contribution{D: 0.5, F: 3e9}, 0)
	wantRoot := f.bc.StateRoot()
	wantHeight := f.bc.Height()

	f.crash(t)

	if got := f.bc.Height(); got != wantHeight {
		t.Fatalf("recovered height %d, want %d", got, wantHeight)
	}
	if got := f.bc.StateRoot(); got != wantRoot {
		t.Fatalf("recovered state root %s, want %s", got, wantRoot)
	}
	if got := f.bc.PendingCount(); got != 1 {
		t.Fatalf("recovered pending pool %d, want 1 (unsealed tx must survive)", got)
	}
	if err := f.bc.VerifyChain(); err != nil {
		t.Fatalf("recovered chain fails verification: %v", err)
	}
	// The recovered chain keeps working: seal the pending tx.
	b, err := f.bc.SealBlock()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Receipts) != 1 || !b.Receipts[0].OK {
		t.Fatalf("post-recovery seal receipts: %+v", b.Receipts)
	}
}

// TestRecoverAtEveryTornOffset chops the WAL segment at every byte offset
// — every possible kill -9 image — and requires recovery to succeed with
// exactly the wholly-durable records, twice (idempotent).
func TestRecoverAtEveryTornOffset(t *testing.T) {
	f := newDurableFixture(t, 2)
	f.submit(t, 0, FnDepositSubmit, nil, MinDeposit(f.params, 0, 5e9))
	f.submit(t, 1, FnDepositSubmit, nil, MinDeposit(f.params, 1, 5e9))
	if _, err := f.bc.SealBlock(); err != nil {
		t.Fatal(err)
	}
	f.submit(t, 0, FnContributionSubmit, Contribution{D: 0.5, F: 3e9}, 0)
	if err := f.bc.CloseDurable(); err != nil {
		t.Fatal(err)
	}

	segPath := filepath.Join(f.dir, segmentName(1))
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	snapRaw, err := os.ReadFile(filepath.Join(f.dir, snapshotName(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Expected post-recovery shape for each prefix: count the block and tx
	// records wholly contained in it (a block record absorbs the pending
	// txs before it).
	type expect struct{ height, pending int }
	expected := make([]expect, len(full)+1)
	for cut := 0; cut <= len(full); cut++ {
		var e expect
		_, _ = durable.ScanFrames(bytes.NewReader(full[:cut]), func(p []byte) error {
			var rec walRec
			if err := json.Unmarshal(p, &rec); err != nil {
				return err
			}
			switch rec.Kind {
			case recTx:
				e.pending++
			case recBlock:
				e.height++
				e.pending = 0
			}
			return nil
		})
		expected[cut] = e
	}

	work := t.TempDir()
	for cut := 0; cut <= len(full); cut++ {
		caseDir := filepath.Join(work, fmt.Sprintf("cut-%d", cut))
		if err := os.MkdirAll(caseDir, 0o700); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(caseDir, snapshotName(1)), snapRaw, 0o600); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(caseDir, segmentName(1)), full[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		bc, err := Recover(caseDir, f.authority)
		if err != nil {
			t.Fatalf("cut %d: recover failed: %v", cut, err)
		}
		if got, want := int(bc.Height()), expected[cut].height; got != want {
			t.Fatalf("cut %d: height %d, want %d", cut, got, want)
		}
		if got, want := bc.PendingCount(), expected[cut].pending; got != want {
			t.Fatalf("cut %d: pending %d, want %d", cut, got, want)
		}
		root1 := bc.StateRoot()
		if err := bc.CloseDurable(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		// Idempotent: recovering the (now torn-tail-truncated) directory
		// again lands on the identical state.
		bc2, err := Recover(caseDir, f.authority)
		if err != nil {
			t.Fatalf("cut %d: second recover failed: %v", cut, err)
		}
		if bc2.StateRoot() != root1 || int(bc2.Height()) != expected[cut].height {
			t.Fatalf("cut %d: second recovery diverged", cut)
		}
		if err := bc2.CloseDurable(); err != nil {
			t.Fatal(err)
		}
		os.RemoveAll(caseDir)
	}
}

func TestCheckpointGCAndPITR(t *testing.T) {
	f := newDurableFixture(t, 2)
	var roots []string // state root per height
	roots = append(roots, f.bc.StateRoot())
	for i := 0; i < 4; i++ {
		f.submit(t, i%2, FnDepositSubmit, nil, MinDeposit(f.params, i%2, 5e9)/4+Wei(i))
		if _, err := f.bc.SealBlock(); err != nil {
			t.Fatal(err)
		}
		roots = append(roots, f.bc.StateRoot())
		if err := f.bc.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
	}
	// Retention: at most two snapshots; segments below the older one gone.
	snaps, err := listSnapshots(f.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("snapshots after GC: %v, want 2 retained", snaps)
	}
	segs, err := listSegments(f.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 || segs[0] != snaps[0] {
		t.Fatalf("segments %v should start at older snapshot %d", segs, snaps[0])
	}

	// Point-in-time recovery to every sealed height reproduces that
	// height's exact state root.
	for h := uint64(0); h <= f.bc.Height(); h++ {
		view, err := RecoverAt(f.dir, f.authority, h)
		if err != nil {
			t.Fatalf("RecoverAt(%d): %v", h, err)
		}
		if view.Height() != h {
			t.Fatalf("RecoverAt(%d) landed at height %d", h, view.Height())
		}
		if got := view.StateRoot(); got != roots[h] {
			t.Fatalf("RecoverAt(%d) root %s, want %s", h, got, roots[h])
		}
		if view.WAL() != nil {
			t.Fatalf("PITR view must be detached from the WAL")
		}
	}
	if _, err := RecoverAt(f.dir, f.authority, f.bc.Height()+1); err == nil {
		t.Fatal("RecoverAt beyond durable history must fail")
	}
	// Full recovery still matches the live chain.
	live := f.bc.StateRoot()
	f.crash(t)
	if f.bc.StateRoot() != live {
		t.Fatalf("recovery after checkpoints diverged")
	}
}

func TestRecoverFallsBackToOlderSnapshot(t *testing.T) {
	f := newDurableFixture(t, 2)
	f.submit(t, 0, FnDepositSubmit, nil, MinDeposit(f.params, 0, 5e9))
	if _, err := f.bc.SealBlock(); err != nil {
		t.Fatal(err)
	}
	if err := f.bc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	f.submit(t, 1, FnDepositSubmit, nil, MinDeposit(f.params, 1, 5e9))
	if _, err := f.bc.SealBlock(); err != nil {
		t.Fatal(err)
	}
	if err := f.bc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := f.bc.StateRoot()
	if err := f.bc.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	snaps, err := listSnapshots(f.dir)
	if err != nil || len(snaps) != 2 {
		t.Fatalf("want 2 snapshots, got %v (%v)", snaps, err)
	}
	// Corrupt the newest snapshot; recovery must fall back to the older
	// one and replay the remaining WAL suffix to the identical state.
	newest := filepath.Join(f.dir, snapshotName(snaps[1]))
	if err := os.WriteFile(newest, []byte("{definitely not json"), 0o600); err != nil {
		t.Fatal(err)
	}
	fallbacks := mRecoverBack.Value()
	bc, err := Recover(f.dir, f.authority)
	if err != nil {
		t.Fatalf("recover with corrupt newest snapshot: %v", err)
	}
	if got := bc.StateRoot(); got != want {
		t.Fatalf("fallback recovery root %s, want %s", got, want)
	}
	if got := mRecoverBack.Value() - fallbacks; got != 1 {
		t.Errorf("fallback recovery counted %d snapshot fallbacks, want 1", got)
	}
	// A clean recovery of the same directory (the damaged snapshot aside,
	// which Recover left in place) is not what this counts: remove it.
	if err := bc.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(newest); err != nil {
		t.Fatal(err)
	}
	fallbacks = mRecoverBack.Value()
	if bc, err = Recover(f.dir, f.authority); err != nil {
		t.Fatalf("clean recover: %v", err)
	}
	defer bc.CloseDurable()
	if got := mRecoverBack.Value() - fallbacks; got != 0 {
		t.Errorf("clean recovery counted %d snapshot fallbacks, want 0", got)
	}
}

// TestDedupSurvivesRestart is the regression for double-apply: a client
// whose submission was durably accepted but unsealed at crash time retries
// after the restart; the recovered mempool must answer "already known"
// rather than double-applying.
func TestDedupSurvivesRestart(t *testing.T) {
	f := newDurableFixture(t, 2)
	srv, err := NewServer(f.bc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	cl := NewClientOpts(srv.Addr(), ClientOptions{JitterSeed: 7})
	dep := MinDeposit(f.params, 0, 5e9)
	tx, err := NewTransaction(f.accounts[0], 0, FnDepositSubmit, nil, dep)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SubmitTx(tx); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	// Crash before sealing: the server dies, the WAL survives.
	srv.Close()
	f.crash(t)
	srv2, err := NewServer(f.bc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	go srv2.Serve()
	cl2 := NewClientOpts(srv2.Addr(), ClientOptions{JitterSeed: 7})
	// Blind client retry of the same signed tx: must be reported as
	// success via the (recovered) dedup, not re-admitted.
	if err := cl2.SubmitTx(tx); err != nil {
		t.Fatalf("retry across restart: %v", err)
	}
	if got := f.bc.PendingCount(); got != 1 {
		t.Fatalf("pool holds %d txs after cross-restart retry, want 1", got)
	}
	if _, err := f.bc.SealBlock(); err != nil {
		t.Fatal(err)
	}
	// Exactly one application: the deposit was debited once.
	wantBal := f.alloc[f.accounts[0].Address()] - dep
	if got := f.bc.Balance(f.accounts[0].Address()); got != wantBal {
		t.Fatalf("balance %d after dedup'd retry, want %d (single application)", got, wantBal)
	}
}

// TestRecoverRejectsWrongAuthority: a directory recovers only under the
// authority that sealed it. Under any other key the replayed genesis seals
// differently, so every snapshot fails with ErrReplayMismatch and no chain
// comes back.
func TestRecoverRejectsWrongAuthority(t *testing.T) {
	f := newDurableFixture(t, 2)
	f.submit(t, 0, FnDepositSubmit, nil, 500)
	if _, err := f.bc.SealBlock(); err != nil {
		t.Fatal(err)
	}
	if err := f.bc.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	bc, err := Recover(f.dir, f.accounts[0])
	if !errors.Is(err, ErrReplayMismatch) || bc != nil {
		t.Fatalf("Recover under a member's key: chain returned %v, err %v; want none and ErrReplayMismatch", bc != nil, err)
	}
	// The directory itself is sound: its own authority recovers it.
	bc, err = Recover(f.dir, f.authority)
	if err != nil {
		t.Fatalf("Recover under the sealing authority: %v", err)
	}
	if err := bc.CloseDurable(); err != nil {
		t.Fatal(err)
	}
}
