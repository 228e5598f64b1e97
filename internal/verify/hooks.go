package verify

import (
	"sync"

	"tradefl/internal/chain"
	"tradefl/internal/dbr"
	"tradefl/internal/game"
	"tradefl/internal/gbd"
)

// hookMu serialises Enable and Disable.
var hookMu sync.Mutex

// Enable installs a process-wide auditor behind the solver audit hooks:
// every gbd.Solve, dbr.Solve, on-chain payoffCalculate and sealed block in
// the process is audited from here on. Calling Enable again
// replaces the auditor (and resets the hook closures); the returned
// auditor accumulates until Disable.
func Enable() *Auditor {
	hookMu.Lock()
	defer hookMu.Unlock()
	a := New()
	gbd.SetAuditHook(func(cfg *game.Config, res *gbd.Result, o gbd.Options) {
		a.CheckGBD(cfg, res, o.Epsilon, "gbd")
	})
	dbr.SetAuditHook(func(cfg *game.Config, res *dbr.Result, o dbr.Options) {
		a.CheckDBR(cfg, res, "dbr")
	})
	chain.SetSettlementAudit(func(params chain.ContractParams, contribs []chain.Contribution, payoffs []chain.Wei) {
		a.CheckSettlement(params, contribs, payoffs, "chain")
	})
	chain.SetLedgerAudit(func(ev *chain.LedgerAuditEvent) {
		a.CheckLedger(ev, "chain")
	})
	return a
}

// Disable removes the hooks.
func Disable() {
	hookMu.Lock()
	defer hookMu.Unlock()
	gbd.SetAuditHook(nil)
	dbr.SetAuditHook(nil)
	chain.SetSettlementAudit(nil)
	chain.SetLedgerAudit(nil)
}
