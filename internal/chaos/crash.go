package chaos

import (
	"fmt"
	"sync"

	"tradefl/internal/chain"
	"tradefl/internal/obs"
)

// Crash-restart soak: the settlement phase of the chaos harness run on a
// WAL-backed chain whose validator process is "kill -9"ed on a seeded
// schedule. Each cycle stops the RPC server, aborts the WAL without
// flushing (cutting the log back to its last fsync), recovers the
// chain from the log, and re-serves on the same address while the
// member clients keep retrying through the outage.
//
// The acceptance bar is exactness, not liveness: every recovery must
// reproduce the durable prefix — the sealed height, state root and
// pending-pool size the WAL had acknowledged at the instant of the kill —
// because an acknowledged operation that a restart forgets (or invents)
// is a settlement ledger that cannot be trusted. The durable prefix is
// tracked from the WAL's post-fsync observer, which fires only after the
// submitter saw success, so the comparison is against the strongest
// honest claim the chain ever made.

// durableTracker mirrors the durable prefix of the chain from the WAL's
// post-fsync observer. Its snapshot after a WAL abort is the exact state
// a recovery must reproduce.
type durableTracker struct {
	mu      sync.Mutex
	height  uint64
	root    string
	pending int
}

func newDurableTracker(bc *chain.Blockchain) *durableTracker {
	t := &durableTracker{height: bc.Height(), root: bc.StateRoot(), pending: bc.PendingCount()}
	t.install(bc)
	return t
}

// install hooks t into bc's WAL; called once at open and again on every
// recovered chain (each recovery builds a fresh WAL).
func (t *durableTracker) install(bc *chain.Blockchain) {
	bc.WAL().OnDurable(func(ev chain.DurableEvent) {
		t.mu.Lock()
		defer t.mu.Unlock()
		switch ev.Kind {
		case chain.DurableTx:
			t.pending++
		case chain.DurableBlock:
			// The block's transactions were logged (and counted) before the
			// block record, in log order.
			t.height = ev.Block.Height
			t.root = ev.Block.StateRoot
			t.pending -= len(ev.Block.Txs)
		}
	})
}

func (t *durableTracker) snapshot() (height uint64, root string, pending int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.height, t.root, t.pending
}

// chainBox holds the current chain + server incarnation; the sealer reads
// through it and, on a durable chain, crash swaps it.
type chainBox struct {
	// addr is the RPC address every incarnation serves on.
	addr      string
	authority *chain.Account
	// dir and tracker are set on a durable chain only.
	dir     string
	tracker *durableTracker

	mu        sync.Mutex
	bc        *chain.Blockchain
	srv       *chain.Server
	serveDone chan struct{}
}

func (b *chainBox) current() *chain.Blockchain {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bc
}

// serve starts an RPC server for bc on addr ("127.0.0.1:0" picks a port;
// restarts pass the previous concrete address so clients reconnect).
func (b *chainBox) serve(bc *chain.Blockchain, addr string) error {
	srv, err := chain.NewServer(bc, addr)
	if err != nil {
		return err
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve() }()
	b.mu.Lock()
	b.addr, b.bc, b.srv, b.serveDone = srv.Addr(), bc, srv, done
	b.mu.Unlock()
	return nil
}

// stopServer closes the current server and waits for its accept loop.
func (b *chainBox) stopServer() {
	b.mu.Lock()
	srv, done := b.srv, b.serveDone
	b.srv, b.serveDone = nil, nil
	b.mu.Unlock()
	if srv != nil {
		_ = srv.Close()
		<-done
	}
}

// crash is one simulated kill -9 and recovery of the durable chain. The
// server drains first, so every seal or submission that arrived over RPC
// was acknowledged before the kill.
func (b *chainBox) crash(rep *Report) error {
	b.stopServer()
	if _, err := b.current().WAL().Abort(); err != nil {
		return fmt.Errorf("wal abort: %w", err)
	}
	// The observer has quiesced (Abort joins the syncer), so this is
	// exactly what the chain acknowledged before it died.
	wantHeight, wantRoot, wantPending := b.tracker.snapshot()
	rec, err := chain.Recover(b.dir, b.authority)
	if err != nil {
		return fmt.Errorf("recover after crash %d: %w", rep.Crashes+1, err)
	}
	if rec.Height() != wantHeight || rec.StateRoot() != wantRoot ||
		rec.PendingCount() != wantPending || rec.VerifyChain() != nil {
		rep.RecoveredExact = false
		obs.FlightRecord("chaos", "recovery-mismatch", fmt.Sprintf(
			"crash %d: recovered height %d root %.12s pending %d, durable prefix height %d root %.12s pending %d",
			rep.Crashes+1, rec.Height(), rec.StateRoot(), rec.PendingCount(),
			wantHeight, wantRoot, wantPending))
	}
	b.tracker.install(rec)
	rep.Crashes++
	return b.serve(rec, b.addr)
}

// pitr is the point-in-time spot check: a read-only view at height h must
// rebuild from the log and re-verify, detached from the WAL.
func (b *chainBox) pitr(h uint64) bool {
	if h < 1 {
		return true
	}
	view, err := chain.RecoverAt(b.dir, b.authority, h)
	if err == nil && view.Height() == h && view.VerifyChain() == nil {
		return true
	}
	obs.FlightRecord("chaos", "pitr-mismatch", fmt.Sprintf("view at height %d: err=%v", h, err))
	return false
}
