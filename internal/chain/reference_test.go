package chain

import (
	"encoding/json"
	"fmt"
	"testing"
)

// The reference executor: the chain's original transaction semantics, a full
// JSON clone of the ledger per transaction and a wholesale restore on
// failure. It shares nothing with exec.go but the contract, which makes it
// the oracle TestShardEquivalenceAcrossK and BenchmarkChainSettle's setup
// compare the production executor against.

func (led *ledger) clone() (*ledger, error) {
	raw, err := json.Marshal(led)
	if err != nil {
		return nil, err
	}
	var out ledger
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, err
	}
	if out.Balances == nil {
		out.Balances = map[Address]Wei{}
	}
	if out.Nonces == nil {
		out.Nonces = map[Address]uint64{}
	}
	return &out, nil
}

// legacyExecuteBlock applies txs in order against *ledp, replacing it with
// the pre-transaction clone whenever a transaction fails.
func legacyExecuteBlock(ledp **ledger, txs []Transaction, height uint64) []Receipt {
	receipts := make([]Receipt, len(txs))
	for i := range txs {
		receipts[i] = legacyApplyTx(ledp, txs[i], height)
	}
	return receipts
}

// legacyApplyTx executes one transaction, rolling back to a pre-transaction
// clone on failure. The nonce always advances for a pool-accepted tx.
func legacyApplyTx(ledp **ledger, tx Transaction, height uint64) Receipt {
	hash, err := tx.Hash()
	if err != nil {
		return Receipt{Height: height, OK: false, Error: err.Error()}
	}
	rcpt := Receipt{TxHash: hash, Height: height}
	snapshot, err := (*ledp).clone()
	if err != nil {
		rcpt.Error = err.Error()
		return rcpt
	}
	if err := legacyExecute(*ledp, tx, height); err != nil {
		*ledp = snapshot
		(*ledp).Nonces[tx.From]++ // failed txs still consume the nonce
		rcpt.Error = err.Error()
		return rcpt
	}
	rcpt.OK = true
	return rcpt
}

func legacyExecute(led *ledger, tx Transaction, height uint64) error {
	if led.Nonces[tx.From] != tx.Nonce {
		return fmt.Errorf("%w: got %d, want %d", ErrBadNonce, tx.Nonce, led.Nonces[tx.From])
	}
	if led.Balances[tx.From] < tx.Value {
		return fmt.Errorf("%w: %s has %d, needs %d", ErrInsufficientBalance, tx.From, led.Balances[tx.From], tx.Value)
	}
	led.Nonces[tx.From]++
	led.Balances[tx.From] -= tx.Value
	if tx.Fn == FnTransfer {
		to, err := transferDest(&tx)
		if err != nil {
			return err
		}
		led.Balances[to] += tx.Value
		return nil
	}
	refund, err := led.Contract.Apply(tx.From, tx.Fn, tx.Args, tx.Value, height)
	if err != nil {
		return err
	}
	if refund != 0 {
		led.Balances[tx.From] += refund
	}
	return nil
}

// referenceSeal re-executes the transactions of blocks from a fresh genesis
// ledger through the reference executor and returns the blocks it would
// have sealed on top of genesis: its own receipts, state roots and prev-hash
// links (seals are not part of the header hash and stay empty).
func referenceSeal(tb testing.TB, genesis *Block, params ContractParams, alloc GenesisAlloc, blocks []*Block) []*Block {
	tb.Helper()
	contract, err := NewContract(params)
	if err != nil {
		tb.Fatal(err)
	}
	led := newLedger(contract)
	for addr, amt := range alloc {
		led.Balances[addr] = amt
	}
	if root, err := led.root(); err != nil || root != genesis.StateRoot {
		tb.Fatalf("reference genesis root %s (%v), chain sealed %s", root, err, genesis.StateRoot)
	}
	prev := genesis
	out := make([]*Block, len(blocks))
	for i, b := range blocks {
		prevHash, err := prev.HeaderHash()
		if err != nil {
			tb.Fatal(err)
		}
		receipts := legacyExecuteBlock(&led, b.Txs, b.Height)
		root, err := led.root()
		if err != nil {
			tb.Fatal(err)
		}
		hashes, err := txHashes(b.Txs)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = &Block{
			Height:    b.Height,
			PrevHash:  prevHash,
			StateRoot: root,
			TxRoot:    MerkleRoot(hashes),
			Txs:       b.Txs,
			Receipts:  receipts,
			Sealer:    b.Sealer,
			Term:      b.Term,
		}
		prev = out[i]
	}
	return out
}
