package chain

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"tradefl/internal/randx"
)

// fixtureParts builds the deterministic genesis of the shared test fixture
// (seed 42) without constructing a chain, so tests can open durable chains —
// or several chains — over the identical genesis.
func fixtureParts(t *testing.T, n int) (*Account, []*Account, ContractParams, GenesisAlloc) {
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
		if accounts[i], err = NewAccount(src); err != nil {
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
	return authority, accounts, params, alloc
}

// workload submits and seals on one chain, tracking nonces locally (the
// pending frontier advances mid-block) and collecting the sealed blocks.
type workload struct {
	t      *testing.T
	bc     *Blockchain
	nonces map[Address]uint64
	blocks []*Block
}

func (w *workload) submit(acct *Account, fn Function, args any, value Wei) {
	w.t.Helper()
	nonce := w.nonces[acct.Address()]
	w.nonces[acct.Address()] = nonce + 1
	tx, err := NewTransaction(acct, nonce, fn, args, value)
	if err != nil {
		w.t.Fatal(err)
	}
	if err := w.bc.SubmitTx(*tx); err != nil {
		w.t.Fatalf("SubmitTx(%s): %v", fn, err)
	}
}

func (w *workload) seal() {
	w.t.Helper()
	b, err := w.bc.SealBlock()
	if err != nil {
		w.t.Fatal(err)
	}
	w.blocks = append(w.blocks, b)
}

// mixedWorkload drives a settlement lifecycle salted with transfers and
// every execution-time failure mode. It returns the sealed blocks,
// including a deliberately empty one.
func mixedWorkload(t *testing.T, bc *Blockchain, accounts []*Account, params ContractParams) []*Block {
	t.Helper()
	w := &workload{t: t, bc: bc, nonces: map[Address]uint64{}}
	submit, seal := w.submit, w.seal

	// Block 1: deposits plus a gauntlet of transfers — a chained pair, a
	// self-transfer, and the failure modes (zero address, bad args, zero
	// value, insufficient balance).
	for i, a := range accounts {
		submit(a, FnDepositSubmit, nil, MinDeposit(params, i, 5e9))
	}
	submit(accounts[0], FnTransfer, TransferArgs{To: accounts[1].Address()}, 1_000)
	submit(accounts[1], FnTransfer, TransferArgs{To: accounts[2].Address()}, 500)
	submit(accounts[3], FnTransfer, TransferArgs{To: accounts[3].Address()}, 250)
	submit(accounts[4], FnTransfer, TransferArgs{To: ZeroAddress}, 100)
	submit(accounts[0], FnTransfer, "junk", 100)
	submit(accounts[2], FnTransfer, TransferArgs{To: accounts[0].Address()}, 0)
	submit(accounts[5], FnTransfer, TransferArgs{To: accounts[0].Address()}, 1<<60)
	seal()

	// Block 2: contributions (contract calls touching one member record).
	for i, a := range accounts {
		submit(a, FnContributionSubmit, Contribution{D: 0.15 * float64(i+1), F: 3e9}, 0)
	}
	seal()

	// Empty block: pins the "txs":null serialization identity.
	seal()

	// Block 4: settlement (contract calls touching every member) plus records.
	submit(accounts[0], FnPayoffCalculate, nil, 0)
	for _, a := range accounts {
		submit(a, FnPayoffTransfer, nil, 0)
	}
	for _, a := range accounts {
		submit(a, FnProfileRecord, nil, 0)
	}
	seal()
	return w.blocks
}

// rollbackWorkload seals three blocks of contract calls that fail, among
// them the one call that fails after it has written: with 1-wei bonds,
// payoffCalculate stores the positive payoffs of the first members and then
// rejects a later member's debt. Nothing of a failed call may survive but
// the consumed nonce.
func rollbackWorkload(t *testing.T, bc *Blockchain, accounts []*Account) []*Block {
	t.Helper()
	w := &workload{t: t, bc: bc, nonces: map[Address]uint64{}}
	submit, seal := w.submit, w.seal
	last := len(accounts) - 1
	for _, a := range accounts[:last] {
		submit(a, FnDepositSubmit, nil, 1)
	}
	submit(accounts[last], FnDepositSubmit, nil, 0) // not positive
	submit(accounts[0], FnDepositSubmit, nil, 5)    // already registered
	seal()
	contrib := func(i int) Contribution { return Contribution{D: 0.9 - 0.1*float64(i), F: 3e9} }
	for i, a := range accounts[:last] {
		submit(a, FnContributionSubmit, contrib(i), 0)
	}
	submit(accounts[last], FnContributionSubmit, contrib(last), 0) // not registered
	submit(accounts[0], FnContributionSubmit, contrib(0), 0)       // already submitted
	submit(accounts[1], FnContributionSubmit, "junk", 3)           // not payable
	submit(accounts[last], FnDepositSubmit, nil, 1)
	submit(accounts[last], FnContributionSubmit, contrib(last), 0)
	seal()
	submit(accounts[0], FnPayoffCalculate, nil, 0) // a later member owes beyond its bond
	submit(accounts[1], FnPayoffTransfer, nil, 0)  // not calculated
	submit(accounts[2], FnProfileRecord, nil, 0)   // not calculated
	submit(accounts[3], Function("selfDestruct"), nil, 0)
	seal()
	return w.blocks
}

// The parent commit's seals of the two workloads on the seed-42 six-member
// fixture, identical there for the reference executor and for 1, 3 and 8
// shards. They pin byte-identity of the sealed chain across the move to one
// ledger, independently of the reference executor that moved with it.
const (
	goldenMixedHeader    = "0e83c4778c6dd847cd8b5c0dd409a5f0376cbdcbe9b196196bbbd86b71774c59"
	goldenMixedRoot      = "f001be661555d353dc2937ed4e77211ed0d94ca8ff34836071ab0020a3a66b72"
	goldenRollbackHeader = "513094e6828b33526908ba1ed6f604c495aa6355ad6dfe422549ada21fb18a72"
	goldenRollbackRoot   = "828d56ae1a9a6601d8a46d136a38b187f5e1acb460e3d068d7f3fba74654e55a"
)

// okAndFailed counts a block's receipts by outcome.
func okAndFailed(b *Block) (ok, failed int) {
	for _, r := range b.Receipts {
		if r.OK {
			ok++
		} else {
			failed++
		}
	}
	return ok, failed
}

// requireReferenceAndGolden checks that the blocks f's chain sealed are the
// blocks the reference executor (reference_test.go) seals from the same
// transactions — byte-identical header hashes, which cover txs, receipts,
// state roots and prev-links at every height — and that both end on the
// golden header hash and state root.
func requireReferenceAndGolden(t *testing.T, f *fixture, blocks []*Block, goldenHeader, goldenRoot string) {
	t.Helper()
	genesis, err := f.bc.BlockAt(0)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceSeal(t, genesis, f.params, f.alloc, blocks)
	var h, rh string
	for i, b := range blocks {
		if h, err = b.HeaderHash(); err != nil {
			t.Fatal(err)
		}
		if rh, err = ref[i].HeaderHash(); err != nil {
			t.Fatal(err)
		}
		if h != rh {
			t.Errorf("block %d header %s != reference %s\n got: %+v\nwant: %+v", b.Height, h, rh, b, ref[i])
		}
	}
	if h != goldenHeader || rh != goldenHeader {
		t.Errorf("last header hash: chain %s, reference %s, want golden %s", h, rh, goldenHeader)
	}
	if root, refRoot := f.bc.StateRoot(), ref[len(ref)-1].StateRoot; root != goldenRoot || refRoot != goldenRoot {
		t.Errorf("final state root: chain %s, reference %s, want golden %s", root, refRoot, goldenRoot)
	}
	if err := f.bc.VerifyChain(); err != nil {
		t.Errorf("VerifyChain: %v", err)
	}
}

// TestShardEquivalenceAcrossK is the determinism acceptance test: chain,
// reference executor and golden values agree on the mixed workload. (The
// name dates from the K × workers × pipeline matrix this test used to sweep.)
func TestShardEquivalenceAcrossK(t *testing.T) {
	f := newFixture(t, 6)
	blocks := mixedWorkload(t, f.bc, f.accounts, f.params)
	if len(blocks) != 4 {
		t.Fatalf("workload sealed %d blocks, want 4", len(blocks))
	}
	// The workload must actually exercise both failure and success paths.
	if ok, failed := okAndFailed(blocks[0]); ok == 0 || failed < 4 {
		t.Fatalf("workload block 1 has %d ok / %d failed receipts; want both populated", ok, failed)
	}
	requireReferenceAndGolden(t, f, blocks, goldenMixedHeader, goldenMixedRoot)
}

// TestRollbackEquivalence is the same three-way agreement on failing
// contract calls, where the rollback restores the contract and not only the
// sender's account.
func TestRollbackEquivalence(t *testing.T) {
	f := newFixture(t, 6)
	blocks := rollbackWorkload(t, f.bc, f.accounts)
	for i, want := range []struct{ ok, failed int }{{5, 2}, {7, 3}, {0, 4}} {
		if ok, failed := okAndFailed(blocks[i]); ok != want.ok || failed != want.failed {
			t.Errorf("block %d: %d ok / %d failed receipts, want %d / %d: %+v", i+1, ok, failed, want.ok, want.failed, blocks[i].Receipts)
		}
	}
	// payoffCalculate must fail on a member after the first, i.e. after it
	// has already stored a payoff.
	debtor := -1
	for i, a := range f.accounts {
		if strings.Contains(blocks[2].Receipts[0].Error, string(a.Address())) {
			debtor = i
		}
	}
	if got := blocks[2].Receipts[0].Error; !strings.Contains(got, ErrInsufficientBond.Error()) || debtor < 1 {
		t.Errorf("payoffCalculate failed with %q (member %d), want a bond failure past member 0", got, debtor)
	}
	requireReferenceAndGolden(t, f, blocks, goldenRollbackHeader, goldenRollbackRoot)
}

// TestCrossShardTransfer pins the plain value transfer: wei moves exactly
// between two accounts, conservation holds, and every rejection consumes the
// sender's nonce without moving value. (The name dates from the sharded
// ledger, where the pair was picked on different shards.)
func TestCrossShardTransfer(t *testing.T) {
	f := newFixture(t, 6)
	from, to := f.accounts[0], f.accounts[1]
	total := func() Wei {
		var sum Wei
		for _, a := range f.accounts {
			sum += f.bc.Balance(a.Address())
		}
		return sum
	}
	startTotal, startFrom, startTo := total(), f.bc.Balance(from.Address()), f.bc.Balance(to.Address())

	f.sendOK(t, from, FnTransfer, TransferArgs{To: to.Address()}, 12_345)
	if got := f.bc.Balance(from.Address()); got != startFrom-12_345 {
		t.Errorf("sender balance %d, want %d", got, startFrom-12_345)
	}
	if got := f.bc.Balance(to.Address()); got != startTo+12_345 {
		t.Errorf("receiver balance %d, want %d", got, startTo+12_345)
	}
	if total() != startTotal {
		t.Errorf("transfer minted/burned wei: %d -> %d", startTotal, total())
	}

	fails := []struct {
		name  string
		args  any
		value Wei
		want  string
	}{
		{"zero-address", TransferArgs{To: ZeroAddress}, 5, "transfer to zero address"},
		{"bad-args", "junk", 5, "transfer:"},
		{"zero-value", TransferArgs{To: to.Address()}, 0, "transfer value must be positive"},
		{"insufficient", TransferArgs{To: to.Address()}, 1 << 60, "needs"},
	}
	for _, tc := range fails {
		nonceBefore := f.bc.Nonce(from.Address())
		balBefore := total()
		f.send(t, from, FnTransfer, tc.args, tc.value, false)
		b, _ := f.bc.BlockAt(f.bc.Height())
		rcpt := b.Receipts[len(b.Receipts)-1]
		if !strings.Contains(rcpt.Error, tc.want) {
			t.Errorf("%s: receipt error %q, want substring %q", tc.name, rcpt.Error, tc.want)
		}
		if got := f.bc.Nonce(from.Address()); got != nonceBefore+1 {
			t.Errorf("%s: nonce %d, want %d (failed tx must consume a nonce)", tc.name, got, nonceBefore+1)
		}
		if total() != balBefore {
			t.Errorf("%s: failed transfer moved value: %d -> %d", tc.name, balBefore, total())
		}
	}

	// Self-transfer is a no-op on the balance but consumes a nonce.
	selfBefore := f.bc.Balance(from.Address())
	f.sendOK(t, from, FnTransfer, TransferArgs{To: from.Address()}, 77)
	if got := f.bc.Balance(from.Address()); got != selfBefore {
		t.Errorf("self-transfer changed balance: %d -> %d", selfBefore, got)
	}
}

// TestShardDedupHorizonEviction bounds the dedup index: hashes evicted at
// the FIFO horizon must still be rejected on resubmission — through the
// receipt index — and their receipts must stay queryable.
func TestShardDedupHorizonEviction(t *testing.T) {
	f := newFixtureOpts(t, 3, Options{DedupHorizon: 2})
	acct := f.accounts[0]
	var txs []*Transaction
	for i := 0; i < 5; i++ {
		tx, err := NewTransaction(acct, uint64(i), FnDepositSubmit, nil, 10)
		if err != nil {
			t.Fatal(err)
		}
		txs = append(txs, tx)
		if err := f.bc.SubmitTx(*tx); err != nil {
			t.Fatal(err)
		}
		if _, err := f.bc.SealBlock(); err != nil {
			t.Fatal(err)
		}
	}
	f.bc.poolMu.RLock()
	indexed, evictedBelow := len(f.bc.sealedRcpt), f.bc.evictedBelow
	f.bc.poolMu.RUnlock()
	if indexed != 2 {
		t.Errorf("dedup index holds %d hashes, want horizon 2", indexed)
	}
	if evictedBelow != 4 {
		t.Errorf("evictedBelow = %d, want 4 (blocks 1-3 evicted)", evictedBelow)
	}

	// Resubmitting an evicted-but-sealed tx must still be the idempotent
	// dedup rejection, not a fresh admission or a bare nonce error.
	err := f.bc.SubmitTx(*txs[0])
	if !errors.Is(err, ErrTxAlreadyKnown) {
		t.Fatalf("evicted sealed tx resubmission: %v, want ErrTxAlreadyKnown", err)
	}
	if !strings.Contains(err.Error(), "sealed at height 1") {
		t.Errorf("dedup error %q does not carry the sealed height", err)
	}
	// A never-sealed tx at a stale nonce is a plain nonce rejection.
	other, err := NewTransaction(acct, 0, FnDepositSubmit, nil, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.bc.SubmitTx(*other); !errors.Is(err, ErrBadNonce) {
		t.Fatalf("stale-nonce fresh tx: %v, want ErrBadNonce", err)
	}
	// Receipts for evicted hashes resolve through the block scan.
	hash, err := txs[0].Hash()
	if err != nil {
		t.Fatal(err)
	}
	rcpt, err := f.bc.ReceiptByHash(hash)
	if err != nil {
		t.Fatalf("ReceiptByHash(evicted): %v", err)
	}
	if rcpt.Height != 1 || !rcpt.OK {
		t.Errorf("evicted receipt = %+v, want OK at height 1", rcpt)
	}
}

// TestShardReadPathContention is the regression test for the read path:
// Balance/Nonce/PendingCount must complete while the seal sequencer is held —
// i.e. reads take only the pool/ledger read locks, never the seal path.
func TestShardReadPathContention(t *testing.T) {
	f := newFixture(t, 6)
	addr := f.accounts[0].Address()
	readAll := func() {
		_ = f.bc.Balance(addr)
		_ = f.bc.Nonce(addr)
		_ = f.bc.PendingCount()
	}
	mustFinish := func(name string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { fn(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s blocked: read path contends with a writer lock it must not take", name)
		}
	}
	// The seal sequencer (pipeline stage gate) must not gate reads.
	f.bc.sealSeq.Lock()
	mustFinish("reads under sealSeq", readAll)
	f.bc.sealSeq.Unlock()

	// And under full load: concurrent readers against a seal loop, raced.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					readAll()
				}
			}
		}()
	}
	nonces := map[Address]uint64{}
	for i := 0; i < 20; i++ {
		acct := f.accounts[i%len(f.accounts)]
		nonce := nonces[acct.Address()]
		nonces[acct.Address()] = nonce + 1
		tx, err := NewTransaction(acct, nonce, FnDepositSubmit, nil, 10)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.bc.SubmitTx(*tx); err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			if _, err := f.bc.SealBlock(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestApplySealedBlockPrefix pins the pipelined-replica contract: a sealed
// block carrying a strict prefix of the local pool applies cleanly and
// leaves the remainder pending, while a block longer than the pool is the
// divergence error.
func TestApplySealedBlockPrefix(t *testing.T) {
	leader := newFixture(t, 3)
	follower := newFixture(t, 3)

	mk := func(i int, nonce uint64, value Wei) *Transaction {
		tx, err := NewTransaction(leader.accounts[i], nonce, FnDepositSubmit, nil, value)
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}
	tx0, tx1, tx2 := mk(0, 0, 10), mk(1, 0, 11), mk(2, 0, 12)
	for _, tx := range []*Transaction{tx0, tx1} {
		if err := leader.bc.SubmitTx(*tx); err != nil {
			t.Fatal(err)
		}
	}
	sealed, err := leader.bc.SealBlock()
	if err != nil {
		t.Fatal(err)
	}
	// The follower holds one extra tx the leader hasn't sealed yet.
	for _, tx := range []*Transaction{tx0, tx1, tx2} {
		if err := follower.bc.SubmitTx(*tx); err != nil {
			t.Fatal(err)
		}
	}
	if err := follower.bc.ApplySealedBlock(sealed); err != nil {
		t.Fatalf("prefix apply: %v", err)
	}
	if h := follower.bc.Height(); h != 1 {
		t.Errorf("follower height %d, want 1", h)
	}
	if p := follower.bc.PendingCount(); p != 1 {
		t.Errorf("follower pending %d, want the 1 unsealed remainder", p)
	}
	if follower.bc.StateRoot() != leader.bc.StateRoot() {
		t.Errorf("state roots diverged: %s vs %s",
			follower.bc.StateRoot(), leader.bc.StateRoot())
	}
	// The remainder seals as the follower's own next block.
	b2, err := follower.bc.SealBlock()
	if err != nil {
		t.Fatal(err)
	}
	if len(b2.Txs) != 1 || b2.Txs[0].Nonce != tx2.Nonce || b2.Txs[0].From != tx2.From {
		t.Errorf("follower block 2 sealed %+v, want the remainder tx", b2.Txs)
	}

	// A sealed block longer than the local pool cannot be a prefix.
	lonely := newFixture(t, 3)
	if err := lonely.bc.SubmitTx(*tx0); err != nil {
		t.Fatal(err)
	}
	if err := lonely.bc.ApplySealedBlock(sealed); err == nil ||
		!strings.Contains(err.Error(), "sealed block carries 2 txs, local pool has 1") {
		t.Errorf("overlong sealed block applied: %v", err)
	}
}

// TestShardedWALRecovery reopens the durable directory of the mixed
// workload: recovery must reproduce the identical height and state root, and
// point-in-time views must match the sealed roots.
func TestShardedWALRecovery(t *testing.T) {
	authority, accounts, params, alloc := fixtureParts(t, 6)
	dir := t.TempDir()
	bc, err := OpenDurable(dir, authority, params, alloc)
	if err != nil {
		t.Fatal(err)
	}
	blocks := mixedWorkload(t, bc, accounts, params)
	wantHeight, wantRoot := bc.Height(), bc.StateRoot()
	if err := bc.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir, authority)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.Height() != wantHeight || rec.StateRoot() != wantRoot {
		t.Errorf("Recover: height %d root %s, want %d %s", rec.Height(), rec.StateRoot(), wantHeight, wantRoot)
	}
	if err := rec.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	// Point-in-time views at each sealed height.
	for _, b := range blocks {
		view, err := RecoverAt(dir, authority, b.Height)
		if err != nil {
			t.Fatalf("RecoverAt(%d): %v", b.Height, err)
		}
		if view.Height() != b.Height || view.StateRoot() != b.StateRoot {
			t.Errorf("PITR at %d: height %d root %s, want %s", b.Height, view.Height(), view.StateRoot(), b.StateRoot)
		}
	}
}
