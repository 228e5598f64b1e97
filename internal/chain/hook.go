package chain

import "sync/atomic"

// SettlementAudit observes every successful payoffCalculate: the contract
// parameters, the recorded contributions in member order, and the final
// per-member payoffs in wei (rounded pair by pair, so they sum to exactly
// zero). internal/verify installs one to cross-check the on-chain
// settlement against an independent float recomputation of Eq. (9) without
// this package importing the auditor.
type SettlementAudit func(params ContractParams, contribs []Contribution, payoffs []Wei)

// settlementAudit holds the installed SettlementAudit (possibly a nil
// function value; atomic.Value cannot store untyped nil).
var settlementAudit atomic.Value

// SetSettlementAudit installs fn as the post-calculate audit observer; nil
// removes it. The hook runs synchronously inside the state transition, so
// it must not call back into the contract.
func SetSettlementAudit(fn SettlementAudit) { settlementAudit.Store(fn) }

// LedgerAuditEvent is the per-sealed-height conservation snapshot handed to
// the ledger audit hook: the wei held by all accounts, the wei escrowed in
// the contract (deposits + calculated payoffs), the genesis total they must
// sum to, and the block's movement of the summed account nonces (it must
// equal the block's tx count — every pool-admitted tx, success or failure,
// consumes exactly one nonce).
type LedgerAuditEvent struct {
	Height     uint64
	GenesisWei Wei
	AccountWei Wei
	EscrowWei  Wei
	NonceDelta int64
	TxCount    int
}

// LedgerAudit observes the ledger after every sealed block.
type LedgerAudit func(ev *LedgerAuditEvent)

var ledgerAudit atomic.Value

// SetLedgerAudit installs fn as the post-seal ledger observer; nil removes
// it. The hook runs synchronously on the seal path (outside the execution
// lock), so it must not call back into the chain.
func SetLedgerAudit(fn LedgerAudit) { ledgerAudit.Store(fn) }

// ledgerAuditArmed reports whether a hook is installed, so the seal path
// only pays for the ledger sums when someone is watching.
func ledgerAuditArmed() bool {
	fn, _ := ledgerAudit.Load().(LedgerAudit)
	return fn != nil
}

func fireLedgerAudit(ev *LedgerAuditEvent) {
	if fn, _ := ledgerAudit.Load().(LedgerAudit); fn != nil {
		fn(ev)
	}
}

// auditSettlement snapshots the calculated contract and invokes the
// installed hook, if any.
func (c *Contract) auditSettlement() {
	fn, _ := settlementAudit.Load().(SettlementAudit)
	if fn == nil {
		return
	}
	n := len(c.Params.Members)
	contribs := make([]Contribution, n)
	payoffs := make([]Wei, n)
	for i, m := range c.Params.Members {
		ms := c.MemberData[m]
		contribs[i] = ms.Contribution
		payoffs[i] = ms.Payoff
	}
	fn(c.Params, contribs, payoffs)
}
