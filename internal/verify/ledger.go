package verify

import (
	"fmt"

	"tradefl/internal/chain"
)

// CheckLedger audits one ledger conservation snapshot (emitted by the chain
// after every sealed block when the hook is armed):
//
//   - ledger-conservation: the wei held by all accounts plus the wei
//     escrowed in the contract (posted deposits and calculated payoffs)
//     must equal the genesis mint exactly. A transfer whose debit and
//     credit disagree, or a rollback that restores too little, breaks this
//     by the leaked amount.
//   - ledger-nonce-regression: the summed account nonces may not move
//     backwards within a block, and must move by exactly the block's tx
//     count (every pool-admitted transaction, success or failure, consumes
//     exactly one nonce).
//
// Returns true when the snapshot is clean.
func (a *Auditor) CheckLedger(ev *chain.LedgerAuditEvent, source string) bool {
	a.begin()
	ok := true
	if total := ev.AccountWei + ev.EscrowWei; total != ev.GenesisWei {
		a.violate(Violation{
			Check: "ledger-conservation", Source: source,
			Detail: fmt.Sprintf("height %d: %d wei in accounts + %d escrowed = %d, genesis minted %d (off by %d)",
				ev.Height, ev.AccountWei, ev.EscrowWei, total, ev.GenesisWei, total-ev.GenesisWei),
			Delta: float64(total - ev.GenesisWei),
		})
		ok = false
	}
	if ev.NonceDelta < 0 {
		a.violate(Violation{
			Check: "ledger-nonce-regression", Source: source,
			Detail: fmt.Sprintf("height %d: nonce sum moved by %d within one block", ev.Height, ev.NonceDelta),
			Delta:  float64(ev.NonceDelta),
		})
		ok = false
	}
	if ev.NonceDelta != int64(ev.TxCount) {
		a.violate(Violation{
			Check: "ledger-nonce-regression", Source: source,
			Detail: fmt.Sprintf("height %d: %d nonces consumed by %d transactions", ev.Height, ev.NonceDelta, ev.TxCount),
			Delta:  float64(ev.NonceDelta - int64(ev.TxCount)),
		})
		ok = false
	}
	return ok
}
