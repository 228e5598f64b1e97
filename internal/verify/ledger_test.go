package verify

import (
	"testing"

	"tradefl/internal/chain"
	"tradefl/internal/randx"
)

// cleanLedgerEvent is a consistent conservation snapshot: 900 wei in
// accounts, 100 escrowed, 1000 minted, and 5 txs moving 5 nonces.
func cleanLedgerEvent() *chain.LedgerAuditEvent {
	return &chain.LedgerAuditEvent{
		Height:     7,
		GenesisWei: 1000,
		AccountWei: 900,
		EscrowWei:  100,
		NonceDelta: 5,
		TxCount:    5,
	}
}

// The three mutation self-tests below keep their sharded-era names; each
// plants the fault on the single-ledger event.

func TestMutationShardWeiLeak(t *testing.T) {
	a := New()
	if !a.CheckLedger(cleanLedgerEvent(), "mut-clean") {
		t.Fatalf("clean ledger flagged:\n%s", a.Summary())
	}
	// One wei vanishes from the accounts: a transfer whose credit side was
	// lost.
	ev := cleanLedgerEvent()
	ev.AccountWei--
	if a.CheckLedger(ev, "mut") {
		t.Fatal("account wei leak not detected")
	}
	assertFired(t, a, "ledger-conservation")
}

func TestMutationShardEscrowLeak(t *testing.T) {
	a := New()
	// The contract escrow disagrees with the account sum: a deposit debited
	// from its account but never recorded (or vice versa).
	ev := cleanLedgerEvent()
	ev.EscrowWei += 3
	if a.CheckLedger(ev, "mut") {
		t.Fatal("escrow imbalance not detected")
	}
	assertFired(t, a, "ledger-conservation")
}

func TestMutationShardNonceRegression(t *testing.T) {
	a := New()
	// The nonce sum moves backwards — a rolled-back failure path that
	// restored too much.
	ev := cleanLedgerEvent()
	ev.NonceDelta = -1
	if a.CheckLedger(ev, "mut") {
		t.Fatal("nonce regression not detected")
	}
	assertFired(t, a, "ledger-nonce-regression")

	// And the total check: nonces consumed ≠ txs admitted.
	b := New()
	ev2 := cleanLedgerEvent()
	ev2.TxCount++
	if b.CheckLedger(ev2, "mut") {
		t.Fatal("nonce/tx-count mismatch not detected")
	}
	assertFired(t, b, "ledger-nonce-regression")
}

// TestLedgerAuditShardedSettlement arms the live hook on a chain and drives
// a full settlement: every sealed height must pass the conservation audit,
// including a value transfer sealed beside contract calls.
func TestLedgerAuditShardedSettlement(t *testing.T) {
	a := New()
	chain.SetLedgerAudit(func(ev *chain.LedgerAuditEvent) { a.CheckLedger(ev, "test") })
	defer chain.SetLedgerAudit(nil)

	src := randx.New(42)
	authority, err := chain.NewAccount(src)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	accounts := make([]*chain.Account, n)
	members := make([]chain.Address, n)
	rho := make([][]float64, n)
	bits := make([]float64, n)
	alloc := chain.GenesisAlloc{}
	for i := range accounts {
		if accounts[i], err = chain.NewAccount(src); err != nil {
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
	params := chain.ContractParams{Members: members, Rho: rho, DataBits: bits, Gamma: 2e-8, Lambda: 0.1}
	bc, err := chain.NewBlockchain(authority, params, alloc)
	if err != nil {
		t.Fatal(err)
	}
	nonces := map[chain.Address]uint64{}
	send := func(acct *chain.Account, fn chain.Function, args any, value chain.Wei) {
		t.Helper()
		nonce := nonces[acct.Address()]
		nonces[acct.Address()] = nonce + 1
		tx, err := chain.NewTransaction(acct, nonce, fn, args, value)
		if err != nil {
			t.Fatal(err)
		}
		if err := bc.SubmitTx(*tx); err != nil {
			t.Fatalf("SubmitTx(%s): %v", fn, err)
		}
	}
	for i, acct := range accounts {
		send(acct, chain.FnDepositSubmit, nil, chain.MinDeposit(params, i, 5e9))
		send(acct, chain.FnContributionSubmit, chain.Contribution{D: 0.25 * float64(i+1), F: 3e9}, 0)
	}
	// Value transfer inside the same block as contract calls.
	send(accounts[0], chain.FnTransfer, chain.TransferArgs{To: members[1]}, 12345)
	if _, err := bc.SealBlock(); err != nil {
		t.Fatal(err)
	}
	send(accounts[0], chain.FnPayoffCalculate, nil, 0)
	send(accounts[0], chain.FnPayoffTransfer, nil, 0)
	if _, err := bc.SealBlock(); err != nil {
		t.Fatal(err)
	}
	if a.Checks() < 2 {
		t.Fatalf("ledger audit ran %d checks, want one per sealed block", a.Checks())
	}
	if a.Count() != 0 {
		t.Fatalf("clean settlement flagged:\n%s", a.Summary())
	}
}
