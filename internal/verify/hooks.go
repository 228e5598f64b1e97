package verify

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"tradefl/internal/chain"
	"tradefl/internal/dbr"
	"tradefl/internal/game"
	"tradefl/internal/gbd"
	"tradefl/internal/obs"
)

// global is the process-wide auditor installed by Enable (nil when
// auditing is off).
var (
	hookMu sync.Mutex
	global atomic.Pointer[Auditor]
)

// Enable installs a process-wide auditor behind the solver audit hooks:
// every gbd.Solve, dbr.Solve and on-chain payoffCalculate in the process
// is audited from here on. The cmds expose this as the -verify flag.
// Calling Enable again replaces the auditor (and resets the hook
// closures); the returned auditor accumulates until Disable.
func Enable() *Auditor {
	hookMu.Lock()
	defer hookMu.Unlock()
	a := New()
	global.Store(a)
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
	vLog.Info("invariant auditing enabled",
		"monotoneTol", monotoneTol, "balanceTol", balanceTol,
		"nashSlack", NashSlack, "gridRes", gridRes)
	return a
}

// Disable removes the hooks and the process-wide auditor.
func Disable() {
	hookMu.Lock()
	defer hookMu.Unlock()
	gbd.SetAuditHook(nil)
	dbr.SetAuditHook(nil)
	chain.SetSettlementAudit(nil)
	chain.SetLedgerAudit(nil)
	global.Store(nil)
}

// Enabled reports whether a process-wide auditor is installed.
func Enabled() bool { return global.Load() != nil }

// Global returns the process-wide auditor, or nil when auditing is off.
func Global() *Auditor { return global.Load() }

// Count returns the process-wide violation count (0 when auditing is off).
func Count() int64 {
	if a := global.Load(); a != nil {
		return a.Count()
	}
	return 0
}

// Finish folds the process-wide audit into an exit decision: nil when
// auditing is off or clean, an error carrying the violation summary
// otherwise. The cmds call it after their run so -verify turns any
// invariant breach into a nonzero exit. A dirty audit also dumps the
// flight recorder to stderr: the ring holds the fault injections, retries
// and span roots leading up to the breach, which is exactly the context a
// violation post-mortem needs.
func Finish() error {
	a := global.Load()
	if a == nil || a.Count() == 0 {
		return nil
	}
	obs.DumpFlight(os.Stderr, fmt.Sprintf("verify: %d violation(s)", a.Count()))
	return fmt.Errorf("verify: %d invariant violation(s) in %d checks\n%s", a.Count(), a.Checks(), a.Summary())
}
