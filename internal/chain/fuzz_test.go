package chain

import (
	"encoding/json"
	"testing"

	"tradefl/internal/randx"
)

// FuzzTransactionDecode throws arbitrary bytes at the transaction decoder
// and verifier: nothing may panic, and nothing that fails signature
// verification may enter the pool.
func FuzzTransactionDecode(f *testing.F) {
	src := randx.New(1)
	acct, err := NewAccount(src)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := NewTransaction(acct, 0, FnDepositSubmit, nil, 100)
	if err != nil {
		f.Fatal(err)
	}
	raw, err := json.Marshal(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"from":"00","value":-5}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"pubKey":"AAAA","sig":"AAAA"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var tx Transaction
		if err := json.Unmarshal(data, &tx); err != nil {
			return
		}
		verr := tx.Verify()
		// A verifying transaction must round-trip its signature payload.
		if verr == nil {
			digest, err := tx.SigHash()
			if err != nil {
				t.Fatalf("verified tx without sig hash: %v", err)
			}
			if !Verify(tx.PubKey, digest, tx.Sig) {
				t.Fatal("Verify() passed but signature check fails")
			}
		}
	})
}

// FuzzContractArgs drives the contract's argument decoding with arbitrary
// payloads across every ABI function: the state machine must reject or
// apply cleanly, never panic, and never mint money.
func FuzzContractArgs(f *testing.F) {
	f.Add(string(FnDepositSubmit), []byte(`{}`), int64(100))
	f.Add(string(FnContributionSubmit), []byte(`{"d":0.5,"f":4e9}`), int64(0))
	f.Add(string(FnContributionSubmit), []byte(`{"d":-1}`), int64(0))
	f.Add(string(FnPayoffCalculate), []byte(`garbage`), int64(0))
	f.Add(string(FnPayoffTransfer), []byte(``), int64(7))
	f.Add(string(FnProfileRecord), []byte(`[1,2,3]`), int64(0))
	f.Add("unknownFn", []byte(`{}`), int64(0))
	f.Fuzz(func(t *testing.T, fn string, args []byte, value int64) {
		src := randx.New(2)
		members := make([]Address, 2)
		accounts := make([]*Account, 2)
		for i := range members {
			acct, err := NewAccount(src)
			if err != nil {
				t.Fatal(err)
			}
			accounts[i] = acct
			members[i] = acct.Address()
		}
		contract, err := NewContract(ContractParams{
			Members:  members,
			Rho:      [][]float64{{0, 0.1}, {0.1, 0}},
			DataBits: []float64{1e10, 1e10},
			Gamma:    1e-8,
			Lambda:   0.1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if value < 0 {
			value = -value
		}
		refund, err := contract.Apply(members[0], Function(fn), args, Wei(value), 1)
		if err == nil && refund < 0 {
			t.Fatalf("contract returned negative refund %d", refund)
		}
		// The contract can never refund more than was ever deposited.
		var escrow Wei
		for _, ms := range contract.MemberData {
			escrow += ms.Deposit
		}
		if refund > Wei(value)+escrow {
			t.Fatalf("refund %d exceeds deposits", refund)
		}
	})
}
