package chain

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tradefl/internal/game"
	"tradefl/internal/randx"
)

// Recover rebuilds the chain in dir to its last durable state: the log
// replayed and verified from genesis, every record that survived the
// crash included, with the WAL reattached. It is OpenDurable without the
// genesis check, for tests that hold no params or allocation.
func Recover(dir string, authority *Account) (*Blockchain, error) {
	return recoverDir(dir, authority, math.MaxUint64)
}

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
	if _, err := f.bc.WAL().Abort(); err != nil {
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

// TestOpenDurableReopensPopulatedDir: reopening a directory that holds
// blocks, a fencing-term bump and a pending tx must resume the whole
// durable history, and the reopened chain must keep sealing on top of it.
func TestOpenDurableReopensPopulatedDir(t *testing.T) {
	f := newDurableFixture(t, 3)
	for i := range f.accounts {
		f.submit(t, i, FnDepositSubmit, nil, MinDeposit(f.params, i, 5e9))
	}
	if _, err := f.bc.SealBlock(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.bc.Promote(); err != nil {
		t.Fatal(err)
	}
	f.submit(t, 0, FnContributionSubmit, Contribution{D: 0.5, F: 3e9}, 0)
	if _, err := f.bc.SealBlock(); err != nil {
		t.Fatal(err)
	}
	f.submit(t, 1, FnContributionSubmit, Contribution{D: 0.5, F: 3e9}, 0)
	wantHeight, wantRoot, wantPending := f.bc.Height(), f.bc.StateRoot(), f.bc.PendingCount()
	if err := f.bc.CloseDurable(); err != nil {
		t.Fatal(err)
	}

	bc, err := OpenDurable(f.dir, f.authority, f.params, f.alloc)
	if err != nil {
		t.Fatal(err)
	}
	if got := bc.Height(); got != wantHeight {
		t.Fatalf("reopened height %d, want %d", got, wantHeight)
	}
	if got := bc.StateRoot(); got != wantRoot {
		t.Fatalf("reopened state root %s, want %s", got, wantRoot)
	}
	if got := bc.PendingCount(); got != wantPending {
		t.Fatalf("reopened pending pool %d, want %d", got, wantPending)
	}
	if got := bc.Term(); got != 1 {
		t.Fatalf("reopened term %d, want 1", got)
	}
	if _, err := bc.SealBlock(); err != nil {
		t.Fatal(err)
	}
	sealedRoot := bc.StateRoot()
	if err := bc.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	again, err := Recover(f.dir, f.authority)
	if err != nil {
		t.Fatalf("recover after sealing on the reopened chain: %v", err)
	}
	if again.Height() != wantHeight+1 || again.StateRoot() != sealedRoot {
		t.Fatalf("recovered height %d root %s, want %d %s", again.Height(), again.StateRoot(), wantHeight+1, sealedRoot)
	}
	again.CloseDurable()
}

// TestOpenDurableRefusesAnotherGenesis: a populated directory opens only
// with the genesis it was written with. Params, alloc or an authority that
// build another genesis block are refused with ErrReplayMismatch, as
// tradefl-chain -seed 8 must be on a directory written with -seed 7.
func TestOpenDurableRefusesAnotherGenesis(t *testing.T) {
	f := newDurableFixture(t, 2)
	f.submit(t, 0, FnDepositSubmit, nil, MinDeposit(f.params, 0, 5e9))
	if _, err := f.bc.SealBlock(); err != nil {
		t.Fatal(err)
	}
	if err := f.bc.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	otherAlloc := GenesisAlloc{}
	for addr, wei := range f.alloc {
		otherAlloc[addr] = wei + 1
	}
	otherParams := f.params
	otherParams.Lambda *= 2
	for _, tc := range []struct {
		name      string
		authority *Account
		params    ContractParams
		alloc     GenesisAlloc
	}{
		{"alloc", f.authority, f.params, otherAlloc},
		{"params", f.authority, otherParams, f.alloc},
		{"authority", f.accounts[1], f.params, f.alloc},
	} {
		bc, err := OpenDurable(f.dir, tc.authority, tc.params, tc.alloc)
		if !errors.Is(err, ErrReplayMismatch) || bc != nil {
			t.Fatalf("OpenDurable with another %s: chain returned %v, err %v; want none and ErrReplayMismatch", tc.name, bc != nil, err)
		}
	}
	bc, err := OpenDurable(f.dir, f.authority, f.params, f.alloc)
	if err != nil {
		t.Fatalf("OpenDurable with the directory's own genesis: %v", err)
	}
	if bc.Height() != 1 {
		t.Fatalf("reopened height %d, want 1", bc.Height())
	}
	if err := bc.CloseDurable(); err != nil {
		t.Fatal(err)
	}
}

// TestOldFormatDirIsRefused builds directories in the snapshot-and-segment
// format that predates wal.log and requires every way of opening them to
// fail with errOldFormat and leave them byte for byte as they were —
// OpenDurable in particular must not start a fresh chain beside the old
// one.
func TestOldFormatDirIsRefused(t *testing.T) {
	f := newDurableFixture(t, 2)
	if err := f.bc.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	for name, files := range map[string]map[string]string{
		"snapshot": {
			"snap-00000002.json": `{"params":{},"blocks":[],"walSeq":3}`,
			"wal-00000003.seg":   "\x00\x00\x00\x05frame",
		},
		"segments": {
			"wal-00000000.seg": "\x00\x00\x00\x05frame",
			"wal-00000001.seg": "",
		},
	} {
		dir := t.TempDir()
		for file, body := range files {
			if err := os.WriteFile(filepath.Join(dir, file), []byte(body), 0o600); err != nil {
				t.Fatal(err)
			}
		}
		open := map[string]func() (*Blockchain, error){
			"OpenDurable": func() (*Blockchain, error) { return OpenDurable(dir, f.authority, f.params, f.alloc) },
			"Recover":     func() (*Blockchain, error) { return Recover(dir, f.authority) },
			"RecoverAt":   func() (*Blockchain, error) { return RecoverAt(dir, f.authority, 0) },
		}
		for how, fn := range open {
			bc, err := fn()
			if !errors.Is(err, errOldFormat) || bc != nil {
				t.Fatalf("%s: %s returned a chain %v, err %v; want none and errOldFormat", name, how, bc != nil, err)
			}
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(files) {
			t.Errorf("%s: directory holds %d files after the refusals, want the %d it had", name, len(entries), len(files))
		}
		for file, body := range files {
			if got, err := os.ReadFile(filepath.Join(dir, file)); err != nil || string(got) != body {
				t.Errorf("%s: %s changed (err %v)", name, file, err)
			}
		}
	}
}

// TestPreRoundingDirIsRefused opens testdata/prerounding/wal.log, a chain
// directory written while the contract still rounded each member's R_i to
// wei and charged the residual to member 0. It was made by settling
// NewSettlement(DefaultConfig(N = 4, seed 5), 5) on OpenDurable: the four
// Stages of goldenProfile, each one SubmitTxBatch and one SealBlock, then
// CloseDurable. Its genesis, deposits and contributions still replay, but
// pairwise rounding pays this game's members differently, so the calculate
// block (height 3) seals another state root. OpenDurable and RecoverAt
// must refuse the directory with ErrReplayMismatch and leave it as it was:
// an old directory is refused, never converted.
func TestPreRoundingDirIsRefused(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "prerounding", logName))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, logName)
	if err := os.WriteFile(path, want, 0o600); err != nil {
		t.Fatal(err)
	}
	cfg, err := game.DefaultConfig(game.GenOptions{N: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSettlement(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverAt(dir, s.Authority, 2); err != nil {
		t.Fatalf("RecoverAt(2), before the calculate block: %v", err)
	}
	for how, open := range map[string]func() (*Blockchain, error){
		"OpenDurable": func() (*Blockchain, error) { return OpenDurable(dir, s.Authority, s.Params, s.Alloc) },
		"RecoverAt":   func() (*Blockchain, error) { return RecoverAt(dir, s.Authority, 4) },
	} {
		if bc, err := open(); !errors.Is(err, ErrReplayMismatch) || !strings.Contains(err.Error(), "block 3:") || bc != nil {
			t.Errorf("%s returned a chain %v, err %v; want none and ErrReplayMismatch at block 3", how, bc != nil, err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s changed %s (err %v)", how, logName, err)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Errorf("directory holds %d entries after the refusals (err %v), want only %s", len(entries), err, logName)
	}
}

// TestRecoverAtEveryTornOffset chops the log at every byte offset past its
// genesis record — every possible kill -9 image, since the genesis record
// is written whole before the log exists — and requires recovery to
// succeed with exactly the wholly-durable records, twice (idempotent).
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

	full, err := os.ReadFile(filepath.Join(f.dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	genesisEnd := genesisFrameEnd(t, full)
	// Expected post-recovery shape for each prefix: count the block and tx
	// records wholly contained in it (a block record absorbs the pending
	// txs before it).
	type expect struct{ height, pending int }
	expected := make([]expect, len(full)+1)
	for cut := genesisEnd; cut <= len(full); cut++ {
		var e expect
		_, _ = scanFrames(bytes.NewReader(full[:cut]), func(p []byte) error {
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
	for cut := genesisEnd; cut <= len(full); cut++ {
		caseDir := filepath.Join(work, fmt.Sprintf("cut-%d", cut))
		if err := os.MkdirAll(caseDir, 0o700); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(caseDir, logName), full[:cut], 0o600); err != nil {
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

// genesisFrameEnd returns the offset just past the log's genesis record.
func genesisFrameEnd(t testing.TB, log []byte) int {
	t.Helper()
	end, err := scanFrames(bytes.NewReader(log), func([]byte) error { return errStopScan })
	if !errors.Is(err, errStopScan) {
		t.Fatalf("log has no intact first record: %v", err)
	}
	return int(end)
}

var errStopScan = errors.New("stop")

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
		t.Fatalf("recovery after point-in-time views diverged")
	}
}

// TestRecoverAtPastPooledSnapshot: the target block's txs sat pending in
// the pool, one record at a time, before the block sealed them.
// Point-in-time recovery must replay that pool exactly as Recover does.
func TestRecoverAtPastPooledSnapshot(t *testing.T) {
	f := newDurableFixture(t, 3)
	for i := range f.accounts {
		f.submit(t, i, FnDepositSubmit, nil, MinDeposit(f.params, i, 5e9))
	}
	if _, err := f.bc.SealBlock(); err != nil {
		t.Fatal(err)
	}
	view, err := RecoverAt(f.dir, f.authority, f.bc.Height())
	if err != nil {
		t.Fatalf("RecoverAt(%d): %v", f.bc.Height(), err)
	}
	if got, want := view.StateRoot(), f.bc.StateRoot(); got != want {
		t.Fatalf("RecoverAt(%d) root %s, want %s", f.bc.Height(), got, want)
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
	cl := NewClient(srv.Addr())
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
	cl2 := NewClient(srv2.Addr())
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
// differently, so the genesis record fails with ErrReplayMismatch and no
// chain comes back.
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
