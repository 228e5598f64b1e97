package chain

import (
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"tradefl/internal/randx"
)

// fixture builds a 3-member chain with funded accounts.
type fixture struct {
	bc        *Blockchain
	authority *Account
	accounts  []*Account
	params    ContractParams
	alloc     GenesisAlloc
}

func newFixture(t *testing.T, n int) *fixture {
	t.Helper()
	authority, accounts, params, alloc := fixtureParts(t, n)
	bc, err := NewBlockchain(authority, params, alloc)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{bc: bc, authority: authority, accounts: accounts, params: params, alloc: alloc}
}

// sendOK submits a tx, seals, and asserts the receipt succeeded.
func (f *fixture) sendOK(t *testing.T, acct *Account, fn Function, args any, value Wei) {
	t.Helper()
	f.send(t, acct, fn, args, value, true)
}

func (f *fixture) send(t *testing.T, acct *Account, fn Function, args any, value Wei, wantOK bool) {
	t.Helper()
	tx, err := NewTransaction(acct, f.bc.Nonce(acct.Address()), fn, args, value)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.bc.SubmitTx(*tx); err != nil {
		t.Fatalf("SubmitTx(%s): %v", fn, err)
	}
	b, err := f.bc.SealBlock()
	if err != nil {
		t.Fatal(err)
	}
	rcpt := b.Receipts[len(b.Receipts)-1]
	if rcpt.OK != wantOK {
		t.Fatalf("%s receipt OK=%v (err=%q), want %v", fn, rcpt.OK, rcpt.Error, wantOK)
	}
}

// runSettlement drives the full Fig. 3 lifecycle.
func runSettlement(t *testing.T, f *fixture, contribs []Contribution) {
	t.Helper()
	for i, a := range f.accounts {
		dep := MinDeposit(f.params, i, 5e9)
		f.sendOK(t, a, FnDepositSubmit, nil, dep)
	}
	for i, a := range f.accounts {
		f.sendOK(t, a, FnContributionSubmit, contribs[i], 0)
	}
	f.sendOK(t, f.accounts[0], FnPayoffCalculate, nil, 0)
	for _, a := range f.accounts {
		f.sendOK(t, a, FnPayoffTransfer, nil, 0)
	}
	for _, a := range f.accounts {
		f.sendOK(t, a, FnProfileRecord, nil, 0)
	}
}

func TestFullSettlementLifecycle(t *testing.T) {
	f := newFixture(t, 3)
	start := make([]Wei, 3)
	for i, a := range f.accounts {
		start[i] = f.bc.Balance(a.Address())
	}
	contribs := []Contribution{
		{D: 0.9, F: 5e9}, // big contributor: receives transfers
		{D: 0.5, F: 4e9},
		{D: 0.1, F: 3e9}, // small contributor: pays
	}
	runSettlement(t, f, contribs)

	// Budget balance on-chain: total balances unchanged.
	var before, after Wei
	for i, a := range f.accounts {
		before += start[i]
		after += f.bc.Balance(a.Address())
	}
	if before != after {
		t.Errorf("total balance changed: %d -> %d (budget balance violated)", before, after)
	}
	// Directional transfers: big contributor gained, small lost.
	if f.bc.Balance(f.accounts[0].Address()) <= start[0] {
		t.Error("largest contributor did not gain")
	}
	if f.bc.Balance(f.accounts[2].Address()) >= start[2] {
		t.Error("smallest contributor did not pay")
	}
	// Contract fully settled with records.
	if err := f.bc.ContractView(func(c *Contract) error {
		if !c.Settled {
			t.Error("contract not settled")
		}
		if len(c.SortedRecords()) != 3 {
			t.Errorf("got %d records, want 3", len(c.Records))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.bc.VerifyChain(); err != nil {
		t.Errorf("VerifyChain: %v", err)
	}
}

func TestEqualContributionsTransferNothing(t *testing.T) {
	f := newFixture(t, 3)
	start := f.bc.Balance(f.accounts[0].Address())
	same := Contribution{D: 0.5, F: 4e9}
	runSettlement(t, f, []Contribution{same, same, same})
	if got := f.bc.Balance(f.accounts[0].Address()); got != start {
		t.Errorf("balance changed by %d despite equal contributions", got-start)
	}
}

func TestPayoffsMatchEquationNine(t *testing.T) {
	f := newFixture(t, 3)
	contribs := []Contribution{{D: 0.8, F: 5e9}, {D: 0.4, F: 4e9}, {D: 0.2, F: 3e9}}
	for i, a := range f.accounts {
		f.sendOK(t, a, FnDepositSubmit, nil, MinDeposit(f.params, i, 5e9))
	}
	for i, a := range f.accounts {
		f.sendOK(t, a, FnContributionSubmit, contribs[i], 0)
	}
	f.sendOK(t, f.accounts[0], FnPayoffCalculate, nil, 0)

	xs := make([]float64, 3)
	for i, c := range contribs {
		xs[i] = c.D*f.params.DataBits[i] + f.params.Lambda*c.F
	}
	var payoffs []Wei
	if err := f.bc.ContractView(func(c *Contract) error {
		p, err := c.Payoffs()
		payoffs = p
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var sum Wei
	for i := range payoffs {
		var want float64
		for j := range xs {
			want += f.params.Gamma * f.params.Rho[i][j] * (xs[i] - xs[j])
		}
		got := FromWei(payoffs[i])
		if diff := got - want; diff > 1e-3 || diff < -1e-3 {
			t.Errorf("payoff[%d] = %v, want %v (Eq. 9)", i, got, want)
		}
		sum += payoffs[i]
	}
	if sum != 0 {
		t.Errorf("Σ payoffs = %d wei, want exactly 0", sum)
	}
}

func TestLifecycleOrderingEnforced(t *testing.T) {
	f := newFixture(t, 2)
	a0, a1 := f.accounts[0], f.accounts[1]
	// Submit before deposit fails.
	f.send(t, a0, FnContributionSubmit, Contribution{D: 0.5, F: 3e9}, 0, false)
	// Deposit of zero value fails.
	f.send(t, a0, FnDepositSubmit, nil, 0, false)
	// Valid deposits.
	f.sendOK(t, a0, FnDepositSubmit, nil, MinDeposit(f.params, 0, 5e9))
	// Double deposit fails.
	f.send(t, a0, FnDepositSubmit, nil, 100, false)
	// Calculate before all submitted fails.
	f.send(t, a0, FnPayoffCalculate, nil, 0, false)
	// Transfer before calculate fails.
	f.send(t, a0, FnPayoffTransfer, nil, 0, false)
	// Record before calculate fails.
	f.send(t, a0, FnProfileRecord, nil, 0, false)
	f.sendOK(t, a1, FnDepositSubmit, nil, MinDeposit(f.params, 1, 5e9))
	f.sendOK(t, a0, FnContributionSubmit, Contribution{D: 0.5, F: 3e9}, 0)
	// Double submit fails.
	f.send(t, a0, FnContributionSubmit, Contribution{D: 0.6, F: 3e9}, 0, false)
	f.sendOK(t, a1, FnContributionSubmit, Contribution{D: 0.5, F: 3e9}, 0)
	f.sendOK(t, a0, FnPayoffCalculate, nil, 0)
	// Idempotent recalculation is OK.
	f.sendOK(t, a1, FnPayoffCalculate, nil, 0)
	f.sendOK(t, a0, FnPayoffTransfer, nil, 0)
	// Double settle fails.
	f.send(t, a0, FnPayoffTransfer, nil, 0, false)
}

func TestNonMemberRejected(t *testing.T) {
	f := newFixture(t, 2)
	src := randx.New(777)
	outsider, err := NewAccount(src)
	if err != nil {
		t.Fatal(err)
	}
	// Fund the outsider via genesis is not possible post-hoc; a zero-value
	// call is enough to exercise membership checks.
	tx, err := NewTransaction(outsider, 0, FnDepositSubmit, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.bc.SubmitTx(*tx); err != nil {
		t.Fatal(err)
	}
	b, err := f.bc.SealBlock()
	if err != nil {
		t.Fatal(err)
	}
	if b.Receipts[0].OK {
		t.Error("outsider depositSubmit succeeded")
	}
}

func TestInsufficientBalanceRejected(t *testing.T) {
	f := newFixture(t, 2)
	huge := Wei(10_000_000_000) // above the 1000-token genesis allocation
	f.send(t, f.accounts[0], FnDepositSubmit, nil, huge, false)
}

func TestContributionValidation(t *testing.T) {
	f := newFixture(t, 2)
	f.sendOK(t, f.accounts[0], FnDepositSubmit, nil, 1000)
	f.send(t, f.accounts[0], FnContributionSubmit, Contribution{D: 1.5, F: 3e9}, 0, false)
	f.send(t, f.accounts[0], FnContributionSubmit, Contribution{D: 0.5, F: -1}, 0, false)
	f.send(t, f.accounts[0], FnContributionSubmit, "not json object", 0, false)
}

// TestHostileContributionF: a reported F is capped at submission, on both
// submission paths, and a payoff the wei range cannot hold fails
// payoffCalculate with a stated error rather than reaching ToWei, whose
// float→int64 conversion is architecture-defined out of range (amd64 wraps:
// F = 1e22 used to seal "owes -9.223372036854775e+12 beyond its bond").
func TestHostileContributionF(t *testing.T) {
	lastError := func(f *fixture) string {
		b, err := f.bc.BlockAt(f.bc.Height())
		if err != nil {
			t.Fatal(err)
		}
		return b.Receipts[len(b.Receipts)-1].Error
	}
	for _, tc := range []struct {
		f        float64
		accepted bool
	}{{1e15, true}, {1e22, false}, {1e300, false}} {
		f := newFixture(t, 2)
		for _, a := range f.accounts {
			f.sendOK(t, a, FnDepositSubmit, nil, 1000)
		}
		hostile := Contribution{D: 0.5, F: tc.f}
		f.send(t, f.accounts[0], FnContributionSubmit, hostile, 0, tc.accepted)
		if msg := lastError(f); !tc.accepted && !strings.HasPrefix(msg, ErrBadArgs.Error()+": contribution out of range") {
			t.Errorf("F=%g submitted: receipt error %q, want %v", tc.f, msg, ErrBadArgs)
		}
		cr := newFixture(t, 2)
		for _, a := range cr.accounts {
			cr.sendOK(t, a, FnDepositSubmit, nil, 1000)
			cr.sendOK(t, a, FnContributionCommit, CommitArgs{Hash: CommitmentHash(hostile, "s")}, 0)
		}
		cr.send(t, cr.accounts[0], FnContributionReveal, RevealArgs{Contribution: hostile, Salt: "s"}, 0, tc.accepted)
		if msg := lastError(cr); !tc.accepted && !strings.HasPrefix(msg, ErrBadArgs.Error()+": contribution out of range") {
			t.Errorf("F=%g revealed: receipt error %q, want %v", tc.f, msg, ErrBadArgs)
		}
	}

	// An accepted F under a deployed γ large enough to leave the wei range.
	authority, accounts, params, alloc := fixtureParts(t, 2)
	params.Gamma = 1e12
	bc, err := NewBlockchain(authority, params, alloc)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{bc: bc, authority: authority, accounts: accounts, params: params, alloc: alloc}
	for _, a := range f.accounts {
		f.sendOK(t, a, FnDepositSubmit, nil, 1000)
	}
	f.sendOK(t, f.accounts[0], FnContributionSubmit, Contribution{D: 1, F: 1e15}, 0)
	f.sendOK(t, f.accounts[1], FnContributionSubmit, Contribution{}, 0)
	f.send(t, f.accounts[0], FnPayoffCalculate, nil, 0, false)
	if msg := lastError(f); !strings.Contains(msg, "outside the wei range") || strings.Contains(msg, "e+12 beyond its bond") {
		t.Errorf("payoffCalculate receipt error %q, want the stated range error", msg)
	}
}

func TestInsufficientBondFailsCalculate(t *testing.T) {
	f := newFixture(t, 2)
	// Tiny deposits cannot cover the loser's transfer.
	f.sendOK(t, f.accounts[0], FnDepositSubmit, nil, 1)
	f.sendOK(t, f.accounts[1], FnDepositSubmit, nil, 1)
	f.sendOK(t, f.accounts[0], FnContributionSubmit, Contribution{D: 1, F: 5e9}, 0)
	f.sendOK(t, f.accounts[1], FnContributionSubmit, Contribution{D: 0.01, F: 3e9}, 0)
	f.send(t, f.accounts[0], FnPayoffCalculate, nil, 0, false)
}

func TestTamperingDetected(t *testing.T) {
	f := newFixture(t, 2)
	f.sendOK(t, f.accounts[0], FnDepositSubmit, nil, 500)
	if err := f.bc.VerifyChain(); err != nil {
		t.Fatalf("pre-tamper verify: %v", err)
	}
	if err := f.bc.TamperBlockForTest(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.bc.VerifyChain(); err == nil {
		t.Error("VerifyChain missed tampering")
	}
}

func TestBadNonceRejected(t *testing.T) {
	f := newFixture(t, 2)
	tx, err := NewTransaction(f.accounts[0], 5, FnDepositSubmit, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.bc.SubmitTx(*tx); !errors.Is(err, ErrBadNonce) {
		t.Errorf("err = %v, want ErrBadNonce", err)
	}
}

func TestForgedSignatureRejected(t *testing.T) {
	f := newFixture(t, 2)
	tx, err := NewTransaction(f.accounts[0], 0, FnDepositSubmit, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	tx.Value = 200 // mutate after signing
	if err := f.bc.SubmitTx(*tx); err == nil {
		t.Error("accepted tampered transaction")
	}
	// Sender/pubkey mismatch.
	tx2, err := NewTransaction(f.accounts[0], 0, FnDepositSubmit, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	tx2.From = f.accounts[1].Address()
	if err := f.bc.SubmitTx(*tx2); err == nil {
		t.Error("accepted sender/pubkey mismatch")
	}
}

func TestUnknownFunctionFails(t *testing.T) {
	f := newFixture(t, 2)
	f.send(t, f.accounts[0], Function("selfDestruct"), nil, 0, false)
}

func TestContractParamsValidation(t *testing.T) {
	f := newFixture(t, 2)
	p := f.params
	p.Gamma = -1
	if _, err := NewContract(p); err == nil {
		t.Error("accepted negative gamma")
	}
	p = f.params
	p.DataBits = p.DataBits[:1]
	if _, err := NewContract(p); err == nil {
		t.Error("accepted dimension mismatch")
	}
	p = f.params
	p.Rho[0][1] = 0.9 // breaks symmetry
	if _, err := NewContract(p); err == nil {
		t.Error("accepted asymmetric rho")
	}
	if _, err := NewContract(ContractParams{}); err == nil {
		t.Error("accepted empty params")
	}
}

func TestWeiConversions(t *testing.T) {
	tests := []struct {
		tokens float64
		want   Wei
	}{
		{1, 1_000_000},
		{-1, -1_000_000},
		{0.0000005, 1}, // rounds up
		{0, 0},
	}
	for _, tt := range tests {
		if got := ToWei(tt.tokens); got != tt.want {
			t.Errorf("ToWei(%v) = %d, want %d", tt.tokens, got, tt.want)
		}
	}
	if got := FromWei(2_500_000); got != 2.5 {
		t.Errorf("FromWei = %v, want 2.5", got)
	}
}

func TestParseAddress(t *testing.T) {
	src := randx.New(1)
	a, err := NewAccount(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseAddress(string(a.Address())); err != nil {
		t.Errorf("ParseAddress rejected valid address: %v", err)
	}
	if _, err := ParseAddress("zz"); err == nil {
		t.Error("ParseAddress accepted non-hex")
	}
	if _, err := ParseAddress("abcd"); err == nil {
		t.Error("ParseAddress accepted short hex")
	}
}

func TestBlockLinkage(t *testing.T) {
	f := newFixture(t, 2)
	f.sendOK(t, f.accounts[0], FnDepositSubmit, nil, 100)
	f.sendOK(t, f.accounts[1], FnDepositSubmit, nil, 100)
	if h := f.bc.Height(); h != 2 {
		t.Errorf("height = %d, want 2", h)
	}
	b1, err := f.bc.BlockAt(1)
	if err != nil {
		t.Fatal(err)
	}
	b0, err := f.bc.BlockAt(0)
	if err != nil {
		t.Fatal(err)
	}
	h0, err := b0.HeaderHash()
	if err != nil {
		t.Fatal(err)
	}
	if b1.PrevHash != h0 {
		t.Error("block 1 does not link to genesis")
	}
	if _, err := f.bc.BlockAt(99); err == nil {
		t.Error("BlockAt(99) succeeded")
	}
}

func TestFailedTxConsumesNonce(t *testing.T) {
	f := newFixture(t, 2)
	// Failing call (submit before deposit).
	f.send(t, f.accounts[0], FnContributionSubmit, Contribution{D: 0.5, F: 3e9}, 0, false)
	if n := f.bc.Nonce(f.accounts[0].Address()); n != 1 {
		t.Errorf("nonce = %d, want 1 after failed tx", n)
	}
	// Failed contract call must not leak value.
	bal := f.bc.Balance(f.accounts[0].Address())
	if bal != 1_000_000_000 {
		t.Errorf("balance = %d, want unchanged after failed call", bal)
	}
}

func TestConcurrentSubmitAndSeal(t *testing.T) {
	// Hammer the chain from many goroutines: per-account nonce sequences
	// submitted concurrently with block sealing must never corrupt state
	// (run under -race in CI).
	f := newFixture(t, 3)
	var wg sync.WaitGroup
	for i, acct := range f.accounts {
		wg.Add(1)
		go func(i int, acct *Account) {
			defer wg.Done()
			for nonce := uint64(0); nonce < 5; nonce++ {
				fn := FnProfileRecord // fails pre-calculate; failure is fine
				if nonce == 0 {
					fn = FnDepositSubmit
				}
				var value Wei
				if fn == FnDepositSubmit {
					value = 1000
				}
				tx, err := NewTransaction(acct, nonce, fn, nil, value)
				if err != nil {
					t.Error(err)
					return
				}
				// Retry until the pool accepts our nonce (another goroutine
				// may seal between our reads).
				for {
					if err := f.bc.SubmitTx(*tx); err == nil {
						break
					} else if !errors.Is(err, ErrBadNonce) {
						t.Errorf("submit: %v", err)
						return
					}
					if _, err := f.bc.SealBlock(); err != nil {
						t.Errorf("seal: %v", err)
						return
					}
				}
			}
		}(i, acct)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-done:
				return
			default:
				if _, err := f.bc.SealBlock(); err != nil {
					t.Errorf("background seal: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()
	done <- struct{}{}
	<-done
	if _, err := f.bc.SealBlock(); err != nil {
		t.Fatal(err)
	}
	if err := f.bc.VerifyChain(); err != nil {
		t.Fatalf("chain corrupted under concurrency: %v", err)
	}
	for _, acct := range f.accounts {
		if n := f.bc.Nonce(acct.Address()); n != 5 {
			t.Errorf("nonce %d, want 5", n)
		}
	}
}

// ParseAddress validates the textual form of an address.
func ParseAddress(s string) (Address, error) {
	raw, err := hex.DecodeString(s)
	if err != nil {
		return ZeroAddress, fmt.Errorf("chain: address %q not hex: %w", s, err)
	}
	if len(raw) != 20 {
		return ZeroAddress, fmt.Errorf("chain: address %q has %d bytes, want 20", s, len(raw))
	}
	return Address(s), nil
}
