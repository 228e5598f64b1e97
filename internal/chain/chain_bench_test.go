package chain

import (
	"encoding/json"
	"testing"

	"tradefl/internal/randx"
)

// settlePlan is a pre-signed one-block settlement lifecycle for N members:
// deposit + contribution per member, one payoffCalculate, then a
// payoffTransfer and profileRecord per member — 4N+1 transactions. The
// plan is chain-independent (it depends only on the genesis), so one plan
// serves every benchmark iteration.
type settlePlan struct {
	authority *Account
	params    ContractParams
	alloc     GenesisAlloc
	txs       []Transaction
}

func buildSettlePlan(b testing.TB, n int) *settlePlan {
	b.Helper()
	src := randx.New(7)
	authority, err := NewAccount(src)
	if err != nil {
		b.Fatal(err)
	}
	accounts := make([]*Account, n)
	members := make([]Address, n)
	bits := make([]float64, n)
	rho := make([][]float64, n)
	alloc := GenesisAlloc{}
	for i := range accounts {
		if accounts[i], err = NewAccount(src); err != nil {
			b.Fatal(err)
		}
		members[i] = accounts[i].Address()
		bits[i] = 2e10
		alloc[members[i]] = 1 << 50
		rho[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			rho[i][j], rho[j][i] = 0.05, 0.05
		}
	}
	params := ContractParams{Members: members, Rho: rho, DataBits: bits, Gamma: 2e-8, Lambda: 0.1}
	p := &settlePlan{authority: authority, params: params, alloc: alloc}
	nonces := make([]uint64, n)
	add := func(i int, fn Function, args any, value Wei) {
		tx, err := NewTransaction(accounts[i], nonces[i], fn, args, value)
		if err != nil {
			b.Fatal(err)
		}
		nonces[i]++
		p.txs = append(p.txs, *tx)
	}
	for i := range accounts {
		add(i, FnDepositSubmit, nil, MinDeposit(params, i, 5e9))
	}
	for i := range accounts {
		add(i, FnContributionSubmit, Contribution{D: float64(i+1) / float64(n), F: 3e9}, 0)
	}
	add(0, FnPayoffCalculate, nil, 0)
	for i := range accounts {
		add(i, FnPayoffTransfer, nil, 0)
	}
	for i := range accounts {
		add(i, FnProfileRecord, nil, 0)
	}
	return p
}

// stages splits the plan into the four blocks of the Fig. 3 lifecycle:
// deposits, contributions, payoffCalculate, transfers + records.
func (p *settlePlan) stages() [][]Transaction {
	n := (len(p.txs) - 1) / 4
	return [][]Transaction{p.txs[:n], p.txs[n : 2*n], p.txs[2*n : 2*n+1], p.txs[2*n+1:]}
}

// settleStaged settles stages on bc the way settle_rpc does: one batch and
// one sealed block per stage, every receipt OK.
func settleStaged(tb testing.TB, bc *Blockchain, stages [][]Transaction) {
	tb.Helper()
	for s, txs := range stages {
		results, err := bc.SubmitTxBatch(txs)
		if err != nil {
			tb.Fatalf("stage %d submit: %v", s, err)
		}
		for i, r := range results {
			if !r.OK || r.Known {
				tb.Fatalf("stage %d tx %d rejected: %+v", s, i, r)
			}
		}
		blk, err := bc.SealBlock()
		if err != nil {
			tb.Fatalf("stage %d seal: %v", s, err)
		}
		for _, r := range blk.Receipts {
			if !r.OK {
				tb.Fatalf("stage %d receipt failed: %+v", s, r)
			}
		}
	}
}

// BenchmarkVerifyChain audits the settle_rpc chain shape (129 txs in 4
// blocks, N=32). witness is the chain as its own process admitted it: the
// audit hashes and checks seals, links and Merkle roots, and repeats no
// ed25519 transaction check. dropped strips the witness, which is what a
// block that crossed a file or a wire looks like: every signature is
// verified again.
func BenchmarkVerifyChain(b *testing.B) {
	plan := buildSettlePlan(b, 32)
	for _, dropped := range []bool{false, true} {
		name := "witness"
		if dropped {
			name = "dropped"
		}
		b.Run(name, func(b *testing.B) {
			bc, err := NewBlockchain(plan.authority, plan.params, plan.alloc)
			if err != nil {
				b.Fatal(err)
			}
			settleStaged(b, bc, plan.stages())
			if dropped {
				for h := uint64(1); h <= bc.Height(); h++ {
					bc.setWitness(h, func([]string) []string { return nil })
				}
			}
			_, before := sigVerifications()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bc.VerifyChain(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			_, after := sigVerifications()
			b.ReportMetric(float64(after-before)/float64(b.N), "sigverify/op")
		})
	}
}

// BenchmarkChainEncode prices the append encoders against encoding/json on
// the settle_rpc shapes: one contribution transaction, a sealed block of 32
// of them, and the settled 32-member ledger (whose ρ is encoded once per
// ledger, so append pays for the member records only).
func BenchmarkChainEncode(b *testing.B) {
	plan := buildSettlePlan(b, 32)
	bc, err := NewBlockchain(plan.authority, plan.params, plan.alloc)
	if err != nil {
		b.Fatal(err)
	}
	settleStaged(b, bc, plan.stages())
	blk, err := bc.BlockAt(2)
	if err != nil {
		b.Fatal(err)
	}
	tx := &blk.Txs[0]
	for _, bench := range []struct {
		name   string
		append func([]byte) ([]byte, error)
		ref    any
	}{
		{"tx", func(dst []byte) ([]byte, error) { return appendTx(dst, tx, true) }, tx},
		{"block32", func(dst []byte) ([]byte, error) { return appendBlock(dst, blk, true) }, blk},
		{"ledger32", bc.led.appendJSON, bc.led},
	} {
		b.Run(bench.name+"/append", func(b *testing.B) {
			var buf []byte
			for i := 0; i < b.N; i++ {
				if buf, err = bench.append(buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(buf)))
		})
		b.Run(bench.name+"/json", func(b *testing.B) {
			var buf []byte
			for i := 0; i < b.N; i++ {
				if buf, err = json.Marshal(bench.ref); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}

// BenchmarkChainSettle is the settlement headline: one op settles a
// 32-member game in a single sealed block on a WAL-backed chain (129 txs,
// one SubmitTxBatch). The first op's block is checked against the
// reference executor.
func BenchmarkChainSettle(b *testing.B) {
	const members = 32
	plan := buildSettlePlan(b, members)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bc, err := OpenDurable(b.TempDir(), plan.authority, plan.params, plan.alloc)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		results, err := bc.SubmitTxBatch(plan.txs)
		if err != nil {
			b.Fatal(err)
		}
		blk, err := bc.SealBlock()
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if i == 0 {
			for j, r := range results {
				if !r.OK {
					b.Fatalf("tx %d rejected: %+v", j, r)
				}
			}
			for _, r := range blk.Receipts {
				if !r.OK {
					b.Fatalf("receipt failed: %+v", r)
				}
			}
			genesis, err := bc.BlockAt(0)
			if err != nil {
				b.Fatal(err)
			}
			ref := referenceSeal(b, genesis, plan.params, plan.alloc, []*Block{blk})[0]
			if blk.StateRoot != ref.StateRoot {
				b.Fatalf("state root %s diverges from the reference executor's %s", blk.StateRoot, ref.StateRoot)
			}
		}
		if err := bc.CloseDurable(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(plan.txs)*b.N)/b.Elapsed().Seconds(), "tx/s")
}
