package chain

import (
	"errors"
	"strings"
	"testing"
)

// TestIsAlreadyOnSealedReceipts drives every ErrAlready* rejection through
// a sealed receipt, the only form in which a member sees it: errors.Is
// cannot find the sentinel in the receipt text, and IsAlready must still
// recognise it. A rejection of a phase not yet done must not match.
func TestIsAlreadyOnSealedReceipts(t *testing.T) {
	contribs := []Contribution{{D: 0.9, F: 5e9}, {D: 0.5, F: 4e9}}
	deposit := func(f *fixture) {
		for i, a := range f.accounts {
			f.sendOK(t, a, FnDepositSubmit, nil, MinDeposit(f.params, i, 5e9))
		}
	}
	submit := func(f *fixture) {
		deposit(f)
		for i, a := range f.accounts {
			f.sendOK(t, a, FnContributionSubmit, contribs[i], 0)
		}
	}
	transfer := func(f *fixture) {
		submit(f)
		f.sendOK(t, f.accounts[0], FnPayoffCalculate, nil, 0)
		f.sendOK(t, f.accounts[0], FnPayoffTransfer, nil, 0)
	}
	commit := func(f *fixture) {
		deposit(f)
		f.sendOK(t, f.accounts[0], FnContributionCommit, CommitArgs{Hash: CommitmentHash(contribs[0], "s")}, 0)
	}
	for _, tc := range []struct {
		name  string
		setup func(*fixture)
		fn    Function
		args  any
		value Wei
		want  error // nil: a rejection IsAlready must not match
	}{
		{"deposit twice", deposit, FnDepositSubmit, nil, 1, ErrAlreadyRegistered},
		{"submit twice", submit, FnContributionSubmit, contribs[0], 0, ErrAlreadySubmitted},
		{"transfer twice", transfer, FnPayoffTransfer, nil, 0, ErrAlreadySettled},
		{"commit twice", commit, FnContributionCommit, CommitArgs{Hash: CommitmentHash(contribs[0], "t")}, 0, ErrAlreadyCommitted},
		{"transfer before calculate", submit, FnPayoffTransfer, nil, 0, nil},
	} {
		f := newFixture(t, 2)
		tc.setup(f)
		acct := f.accounts[0]
		tx, err := NewTransaction(acct, f.bc.Nonce(acct.Address()), tc.fn, tc.args, tc.value)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.bc.SubmitTx(*tx); err != nil {
			t.Fatalf("%s: SubmitTx: %v", tc.name, err)
		}
		b, err := f.bc.SealBlock()
		if err != nil {
			t.Fatal(err)
		}
		rcpt := b.Receipts[len(b.Receipts)-1]
		if rcpt.OK {
			t.Fatalf("%s: receipt OK, want a rejection", tc.name)
		}
		got := errors.New(rcpt.Error)
		if tc.want == nil {
			if IsAlready(got) {
				t.Errorf("%s: IsAlready(%q) = true, want false", tc.name, rcpt.Error)
			}
			continue
		}
		if !strings.HasPrefix(rcpt.Error, tc.want.Error()) {
			t.Errorf("%s: receipt error %q, want %q", tc.name, rcpt.Error, tc.want)
		}
		if errors.Is(got, tc.want) {
			t.Errorf("%s: errors.Is found %v in a receipt text", tc.name, tc.want)
		}
		if !IsAlready(got) {
			t.Errorf("%s: IsAlready(%q) = false, want true", tc.name, rcpt.Error)
		}
	}
}
