package chaos

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"tradefl/internal/chain"
	"tradefl/internal/faults"
	"tradefl/internal/game"
	"tradefl/internal/obs"
	"tradefl/internal/randx"
)

// Crash-restart soak: the settlement phase of the chaos harness run on a
// WAL-backed chain whose validator process is "kill -9"ed on a seeded
// schedule. Each cycle stops the RPC server, aborts the WAL without
// flushing (chopping a seeded number of bytes off the unsynced tail to
// land the tear mid-frame), recovers the chain from snapshot + log, and
// re-serves on the same address while the member clients keep retrying
// through the outage.
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
// through it and the crasher swaps it on every kill/recover cycle.
type chainBox struct {
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
	b.bc, b.srv, b.serveDone = bc, srv, done
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

// runCrashSettlement is runSettlement on a durable chain under the kill
// schedule of the plan seed. It fills both the settlement and the crash
// fields of rep.
func runCrashSettlement(ctx context.Context, cfg *game.Config, opts Options, inj *faults.Injector, profile game.Profile, rep *Report) error {
	n := cfg.N()
	gen, err := chain.NewSettlement(cfg, opts.GameSeed)
	if err != nil {
		return err
	}
	dir := opts.WALDir
	if dir == "" {
		dir, err = os.MkdirTemp("", "tradefl-crashsoak-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	bc, err := chain.OpenDurable(dir, gen.Authority, gen.Params, gen.Alloc)
	if err != nil {
		return err
	}
	tracker := newDurableTracker(bc)
	rep.Durable = true
	rep.RecoveredExact = true

	box := &chainBox{}
	if err := box.serve(bc, "127.0.0.1:0"); err != nil {
		return err
	}
	addr := box.srv.Addr()
	defer func() {
		box.stopServer()
		if cur := box.current(); cur.WAL() != nil {
			_ = cur.CloseDurable()
		}
	}()

	before := make([]chain.Wei, n)
	for i, m := range gen.Params.Members {
		before[i] = bc.Balance(m)
	}

	// Authority seals on a fixed cadence on whichever incarnation is
	// current; seal attempts against a just-killed chain fail on the dead
	// WAL and are retried on the recovered one next tick.
	sealCtx, stopSealer := context.WithCancel(ctx)
	defer stopSealer()
	var sealerWG sync.WaitGroup
	sealerWG.Add(1)
	go func() {
		defer sealerWG.Done()
		tick := time.NewTicker(opts.SealInterval)
		defer tick.Stop()
		for {
			select {
			case <-sealCtx.Done():
				return
			case <-tick.C:
				if _, err := box.current().SealBlock(); err != nil {
					chaosLog.Debug("seal failed", "err", err)
				}
			}
		}
	}()

	// crashCycle is one simulated kill -9 + recovery. tear draws the
	// torn-tail chop so repeated cycles land tears at different offsets.
	tear := randx.New(opts.Plan.Seed ^ 0x746f726e) // "torn"
	crashCycle := func() error {
		box.stopServer()
		old := box.current()
		if _, err := old.WAL().Abort(int64(tear.Intn(64))); err != nil {
			return fmt.Errorf("wal abort: %w", err)
		}
		// The observer has quiesced (Abort joins the syncer), so this is
		// exactly what the chain acknowledged before it died.
		wantHeight, wantRoot, wantPending := tracker.snapshot()
		rec, err := chain.Recover(dir, gen.Authority)
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
		tracker.install(rec)
		rep.Crashes++
		if opts.SnapshotEvery > 0 && rep.Crashes%opts.SnapshotEvery == 0 {
			if err := rec.Checkpoint(); err != nil {
				return fmt.Errorf("checkpoint after crash %d: %w", rep.Crashes, err)
			}
			rep.Checkpoints++
		}
		return box.serve(rec, addr)
	}

	// The crasher fires on the seeded schedule while the members settle.
	crashErr := make(chan error, 1)
	crasherCtx, stopCrasher := context.WithCancel(ctx)
	defer stopCrasher()
	var crasherWG sync.WaitGroup
	crasherWG.Add(1)
	go func() {
		defer crasherWG.Done()
		for _, d := range faults.KillSchedule(opts.Plan.Seed, opts.CrashCycles, opts.CrashMin, opts.CrashMax) {
			select {
			case <-crasherCtx.Done():
				return
			case <-time.After(d):
			}
			if err := crashCycle(); err != nil {
				crashErr <- err
				return
			}
		}
	}()

	// Shared micro-batcher (see runSettlement); its client carries the
	// crash-depth retry budget so a batch flush survives an outage.
	var batcher *chain.BatchSubmitter
	if opts.Batch {
		batchClient := chain.NewClientOpts(addr, chain.ClientOptions{
			Timeout:     5 * time.Second,
			MaxRetries:  30,
			BaseBackoff: 5 * time.Millisecond,
			MaxBackoff:  100 * time.Millisecond,
			Transport:   inj.RoundTripper("batch", nil),
		})
		batcher = chain.NewBatchSubmitter(batchClient, chain.BatchOptions{})
		defer batcher.Close()
	}

	settleCtx, cancel := context.WithTimeout(ctx, opts.SettleTimeout)
	defer cancel()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A crash outage rejects every request for its whole window, so
			// the retry budget is deeper than the fault-free soak's: it must
			// outlast a kill + recovery, not one lost packet.
			client := chain.NewClientOpts(addr, chain.ClientOptions{
				Timeout:     5 * time.Second,
				MaxRetries:  30,
				BaseBackoff: 5 * time.Millisecond,
				MaxBackoff:  100 * time.Millisecond,
				Transport:   inj.RoundTripper(fmt.Sprintf("org-%d", i), nil),
			})
			errs[i] = settleMember(settleCtx, client, batcher, gen.Accounts[i], gen.Deposits[i], profile[i])
		}(i)
	}
	wg.Wait()
	stopCrasher()
	crasherWG.Wait()
	stopSealer()
	sealerWG.Wait()
	select {
	case err := <-crashErr:
		return err
	default:
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("member %d: %w", i, err)
		}
	}

	// The soak must prove recovery even when settlement finished before the
	// first scheduled kill (tiny games on a fast box): force one cycle.
	if rep.Crashes == 0 {
		if err := crashCycle(); err != nil {
			return err
		}
	}

	// Flush any stragglers the last tick missed (e.g. the final record).
	final := box.current()
	if _, err := final.SealBlock(); err != nil {
		return err
	}

	var residual chain.Wei
	for i, m := range gen.Params.Members {
		residual += final.Balance(m) - before[i]
	}
	rep.BudgetResidual = residual
	err = final.ContractView(func(c *chain.Contract) error {
		rep.Settled = c.Settled
		return nil
	})
	if err != nil {
		return err
	}
	rep.ChainVerified = final.VerifyChain() == nil

	// Point-in-time spot check: a read-only view at a mid-soak height must
	// rebuild from snapshot + log and re-verify, detached from the WAL.
	rep.PITRVerified = true
	if h := final.Height() / 2; h >= 1 {
		view, err := chain.RecoverAt(dir, gen.Authority, h)
		rep.PITRVerified = err == nil && view.Height() == h && view.VerifyChain() == nil
		if !rep.PITRVerified {
			obs.FlightRecord("chaos", "pitr-mismatch",
				fmt.Sprintf("view at height %d: err=%v", h, err))
		}
	}
	return nil
}
