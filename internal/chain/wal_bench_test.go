package chain

import (
	"sync"
	"testing"

	"tradefl/internal/randx"
)

// benchChain builds a W-member chain, in-memory or WAL-backed, plus one
// pre-signed tx sequence per member so the timed region measures SubmitTx
// alone (verification + admission + durability), not signing.
func benchChain(b testing.TB, withWAL bool, workers, perWorker int) (*Blockchain, [][]Transaction) {
	b.Helper()
	dir := ""
	if withWAL {
		dir = b.TempDir()
	}
	src := randx.New(7)
	authority, err := NewAccount(src)
	if err != nil {
		b.Fatal(err)
	}
	accounts := make([]*Account, workers)
	members := make([]Address, workers)
	bits := make([]float64, workers)
	rho := make([][]float64, workers)
	alloc := GenesisAlloc{}
	for i := range accounts {
		if accounts[i], err = NewAccount(src); err != nil {
			b.Fatal(err)
		}
		members[i] = accounts[i].Address()
		bits[i] = 2e10
		alloc[members[i]] = 1 << 50
		rho[i] = make([]float64, workers)
	}
	for i := 0; i < workers; i++ {
		for j := i + 1; j < workers; j++ {
			rho[i][j], rho[j][i] = 0.1, 0.1
		}
	}
	params := ContractParams{Members: members, Rho: rho, DataBits: bits, Gamma: 2e-8, Lambda: 0.1}
	var bc *Blockchain
	if dir != "" {
		bc, err = OpenDurable(dir, authority, params, alloc)
	} else {
		bc, err = NewBlockchain(authority, params, alloc)
	}
	if err != nil {
		b.Fatal(err)
	}
	txs := make([][]Transaction, workers)
	for w := range txs {
		txs[w] = make([]Transaction, perWorker)
		for i := 0; i < perWorker; i++ {
			tx, err := NewTransaction(accounts[w], uint64(i), FnDepositSubmit, nil, 1)
			if err != nil {
				b.Fatal(err)
			}
			txs[w][i] = *tx
		}
	}
	return bc, txs
}

// BenchmarkChainSubmitTx compares the in-memory admission path against the
// WAL-backed one under concurrent load, where group commit amortizes each
// fsync over every tx waiting in the queue. That group commit batches is
// counted, not timed, by TestWALGroupCommitOneFsyncPerBacklog.
func BenchmarkChainSubmitTx(b *testing.B) {
	const workers = 256
	for _, tc := range []struct {
		name    string
		withWAL bool
	}{
		{name: "mem"},
		{name: "wal", withWAL: true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			perWorker := (b.N + workers - 1) / workers
			bc, txs := benchChain(b, tc.withWAL, workers, perWorker)
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := range txs[w] {
						if err := bc.SubmitTx(txs[w][i]); err != nil {
							b.Errorf("worker %d tx %d: %v", w, i, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			if tc.withWAL {
				if err := bc.CloseDurable(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
