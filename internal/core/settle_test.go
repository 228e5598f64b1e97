package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"tradefl/internal/chain"
	"tradefl/internal/dbr"
	"tradefl/internal/game"
	"tradefl/internal/randx"
)

// settlePerTx is the oracle for the batched settlement: the same Fig. 3
// lifecycle, signing and submitting one transaction at a time with
// SubmitTx, the way settle did before it batched each stage.
func settlePerTx(cfg *game.Config, profile game.Profile, seed int64) (*chain.Blockchain, *SettlementReport, error) {
	src := randx.New(seed)
	authority, err := chain.NewAccount(src)
	if err != nil {
		return nil, nil, err
	}
	n := cfg.N()
	accounts := make([]*chain.Account, n)
	members := make([]chain.Address, n)
	bits := make([]float64, n)
	fMax := 0.0
	for i, o := range cfg.Orgs {
		if accounts[i], err = chain.NewAccount(src); err != nil {
			return nil, nil, err
		}
		members[i] = accounts[i].Address()
		bits[i] = cfg.DataCredit(i)
		fMax = max(fMax, o.CPULevels[len(o.CPULevels)-1])
	}
	params := chain.ContractParams{Members: members, Rho: cfg.Rho, DataBits: bits, Gamma: cfg.Gamma, Lambda: cfg.Lambda}
	alloc := chain.GenesisAlloc{}
	deposits := make([]chain.Wei, n)
	for i := range accounts {
		deposits[i] = chain.MinDeposit(params, i, fMax)
		alloc[members[i]] = deposits[i] * 2
	}
	bc, err := chain.NewBlockchain(authority, params, alloc)
	if err != nil {
		return nil, nil, err
	}
	nonces := make([]uint64, n)
	send := func(i int, fn chain.Function, args any, value chain.Wei) error {
		tx, err := chain.NewTransaction(accounts[i], nonces[i], fn, args, value)
		if err != nil {
			return err
		}
		nonces[i]++
		return bc.SubmitTx(*tx)
	}
	seal := func() error {
		b, err := bc.SealBlock()
		if err != nil {
			return err
		}
		for _, r := range b.Receipts {
			if !r.OK {
				return fmt.Errorf("height %d: %s", b.Height, r.Error)
			}
		}
		return nil
	}
	for i := range accounts {
		if err := send(i, chain.FnDepositSubmit, nil, deposits[i]); err != nil {
			return nil, nil, err
		}
	}
	if err := seal(); err != nil {
		return nil, nil, err
	}
	for i := range accounts {
		if err := send(i, chain.FnContributionSubmit, chain.Contribution{D: profile[i].D, F: profile[i].F}, 0); err != nil {
			return nil, nil, err
		}
	}
	if err := seal(); err != nil {
		return nil, nil, err
	}
	if err := send(0, chain.FnPayoffCalculate, nil, 0); err != nil {
		return nil, nil, err
	}
	if err := seal(); err != nil {
		return nil, nil, err
	}
	// The report carries the payoffs as calculated, before the transfers
	// pay them out.
	var payoffs []chain.Wei
	if err := bc.ContractView(func(c *chain.Contract) (err error) {
		payoffs, err = c.Payoffs()
		return err
	}); err != nil {
		return nil, nil, err
	}
	for i := range accounts {
		if err := send(i, chain.FnPayoffTransfer, nil, 0); err != nil {
			return nil, nil, err
		}
		if err := send(i, chain.FnProfileRecord, nil, 0); err != nil {
			return nil, nil, err
		}
	}
	if err := seal(); err != nil {
		return nil, nil, err
	}
	if err := bc.VerifyChain(); err != nil {
		return nil, nil, err
	}
	report := &SettlementReport{Transfers: make([]float64, n), BlockHeight: bc.Height(), Verified: true}
	for i := range payoffs {
		report.Transfers[i] = chain.FromWei(payoffs[i])
	}
	err = bc.ContractView(func(c *chain.Contract) error {
		report.Records = len(c.SortedRecords())
		return nil
	})
	return bc, report, err
}

// TestBatchedSettlementMatchesPerTx: admitting each stage with one
// SubmitTxBatch call changes how transactions reach the mempool, nothing
// else — the report, every block (transactions, receipts, roots, seal) and
// the final state root equal the per-transaction oracle's.
func TestBatchedSettlementMatchesPerTx(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed int64
	}{{10, 7}, {32, 3}} {
		cfg, err := game.DefaultConfig(game.GenOptions{N: tc.n, Seed: tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		solved, err := dbr.Solve(cfg, nil, dbr.Options{})
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Seed: tc.seed}.withDefaults()
		got, gotReport, err := m.settleChain(solved.Profile, opts)
		if err != nil {
			t.Fatalf("N=%d batched: %v", tc.n, err)
		}
		want, wantReport, err := settlePerTx(cfg, solved.Profile, opts.Seed)
		if err != nil {
			t.Fatalf("N=%d per-tx oracle: %v", tc.n, err)
		}
		if !reflect.DeepEqual(gotReport, wantReport) {
			t.Errorf("N=%d report %+v, oracle %+v", tc.n, gotReport, wantReport)
		}
		if got.StateRoot() != want.StateRoot() {
			t.Errorf("N=%d final state root %s, oracle %s", tc.n, got.StateRoot(), want.StateRoot())
		}
		if got.Height() != 4 || want.Height() != 4 {
			t.Fatalf("N=%d heights %d / %d, want 4 stage blocks", tc.n, got.Height(), want.Height())
		}
		for h := uint64(1); h <= 4; h++ {
			gb, err := got.BlockAt(h)
			if err != nil {
				t.Fatal(err)
			}
			wb, err := want.BlockAt(h)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gb.Receipts, wb.Receipts) {
				t.Errorf("N=%d block %d receipts differ from the oracle's", tc.n, h)
			}
			gh, gerr := gb.HeaderHash()
			wh, werr := wb.HeaderHash()
			if gerr != nil || werr != nil || gh != wh || !bytes.Equal(gb.Seal, wb.Seal) {
				t.Errorf("N=%d block %d header %s (%v), oracle %s (%v)", tc.n, h, gh, gerr, wh, werr)
			}
		}
	}
}
