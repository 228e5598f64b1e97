package chain

import "fmt"

// executeBlock applies txs to the ledger in pool order and returns their
// receipts. Caller holds execMu exclusively.
func (led *ledger) executeBlock(txs []Transaction, hashes []string, height uint64) []Receipt {
	receipts := make([]Receipt, len(txs))
	for i := range txs {
		receipts[i] = led.applyTx(&txs[i], hashes[i], height)
	}
	return receipts
}

// applyTx executes one transaction. A failure restores the exact
// pre-transaction state — the sender's account shape (value and key
// presence) and, for a contract call, the contract — and then consumes the
// nonce: a pool-admitted transaction always advances its sender. No other
// account needs a snapshot: a transfer credits its recipient only after its
// last failure point, and contract calls move value only through the
// caller's refund.
func (led *ledger) applyTx(tx *Transaction, hash string, height uint64) Receipt {
	rcpt := Receipt{TxHash: hash, Height: height}
	snap := led.snapAcct(tx.From)
	fail := func(err error) Receipt {
		led.restoreAcct(tx.From, snap)
		led.Nonces[tx.From] = snap.non + 1
		rcpt.Error = err.Error()
		return rcpt
	}
	if tx.Nonce != snap.non {
		return fail(fmt.Errorf("%w: got %d, want %d", ErrBadNonce, tx.Nonce, snap.non))
	}
	if snap.bal < tx.Value {
		return fail(fmt.Errorf("%w: %s has %d, needs %d", ErrInsufficientBalance, tx.From, snap.bal, tx.Value))
	}
	led.Nonces[tx.From] = snap.non + 1
	led.Balances[tx.From] = snap.bal - tx.Value
	if tx.Fn == FnTransfer {
		to, err := transferDest(tx)
		if err != nil {
			return fail(err)
		}
		led.Balances[to] += tx.Value
		rcpt.OK = true
		return rcpt
	}
	before := led.snapContract()
	refund, err := led.Contract.Apply(tx.From, tx.Fn, tx.Args, tx.Value, height)
	if err != nil {
		led.restoreContract(before)
		return fail(err)
	}
	if refund != 0 {
		led.Balances[tx.From] += refund
	}
	rcpt.OK = true
	return rcpt
}
