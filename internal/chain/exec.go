package chain

import (
	"fmt"
	"maps"
)

// executeBlock applies txs to the ledger in pool order and returns their
// receipts, recording the block's undo (see rollback). Caller holds execMu
// exclusively.
func (led *ledger) executeBlock(txs []Transaction, hashes []string, height uint64) []Receipt {
	led.recordUndo()
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
	led.touch(tx.From, snap)
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
		led.touch(to, led.snapAcct(to))
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

// blockUndo is the pre-block shape of every account a block changed and of
// the contract (Records is append-only, so its old slice header is an
// exact snapshot): a block whose WAL commit failed leaves no trace.
type blockUndo struct {
	accts    map[Address]acctSnap
	contract Contract
}

func (led *ledger) recordUndo() {
	led.undo = &blockUndo{accts: map[Address]acctSnap{}, contract: *led.Contract}
	led.undo.contract.MemberData = maps.Clone(led.Contract.MemberData)
}

// touch records addr's pre-block shape the first time the block changes it.
func (led *ledger) touch(addr Address, s acctSnap) {
	if _, ok := led.undo.accts[addr]; !ok {
		led.undo.accts[addr] = s
	}
}

// rollback restores the state before the block executeBlock applied last.
func (led *ledger) rollback() {
	for addr, s := range led.undo.accts {
		led.restoreAcct(addr, s)
	}
	*led.Contract = led.undo.contract
	led.undo = nil
}
