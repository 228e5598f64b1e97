// Package chaos is TradeFL's seeded soak harness: it runs the two
// distributed subsystems — the DBR token ring (Algorithm 2) and the
// on-chain settlement lifecycle (Fig. 3) — under an internal/faults
// injector and checks that the paper's guarantees survive the faults:
//
//   - the ring converges to exactly the equilibrium the fault-free serial
//     solver finds (message loss must not freeze strategies into a
//     non-Nash profile), and
//   - settlement stays budget-balanced to the wei (Definition 5): the
//     member balance deltas sum to zero even when submissions are
//     retried through failing and response-dropping RPC links.
//
// The package is test code only: each soak is a Go test whose Options
// literal is its whole reproduction, and the fault schedule is a pure
// function of the plan seed, so a failing soak reproduces from its test
// name alone (go test -run '^TestName$' ./internal/chaos/).
package chaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"tradefl/internal/chain"
	"tradefl/internal/dbr"
	"tradefl/internal/faults"
	"tradefl/internal/game"
	"tradefl/internal/obs"
	"tradefl/internal/transport"
	"tradefl/internal/verify"
)

var chaosLog = obs.Component("chaos")

// Options configures one chaos soak.
type Options struct {
	// Plan is the fault schedule; Plan.Seed drives every injection.
	Plan faults.Plan
	// Orgs is the number of organizations.
	Orgs int
	// GameSeed generates the Table II game instance and the chain accounts.
	GameSeed int64
	// CrashCycles > 0 runs the settlement phase on a WAL-backed chain and
	// kill -9s the validator that many times mid-settlement (aborting the
	// WAL without flushing, recovering, and re-serving on the same
	// address). Every recovery must reproduce exactly the durable prefix —
	// the operations whose submitters saw an acknowledgement.
	CrashCycles int
	// CrashMin/CrashMax bound the seeded uptime between recoveries.
	CrashMin, CrashMax time.Duration
	// Batch settles the profile's four Fig. 3 stages (Settlement.Stages)
	// with one SubmitTxBatch each, over one client, instead of each member
	// walking its own lifecycle (Settlement.Walk): kills then land on
	// multi-tx batch admissions.
	Batch bool
	// Audit, when set, also checks the ring's agreed profile: its
	// transfers and its Nash property.
	Audit *verify.Auditor
}

const (
	// tokenTimeout is the ring's loss-detection timeout.
	tokenTimeout = 200 * time.Millisecond
	// suspectAfter is the ring's same-peer resend budget: a spurious crash
	// suspicion needs suspectAfter+1 consecutive losses on one link,
	// vanishingly unlikely at any sane drop rate.
	suspectAfter = 8
	// sealInterval is the authority's block cadence.
	sealInterval = 25 * time.Millisecond
	// settleTimeout bounds the settlement phase.
	settleTimeout = 2 * time.Minute
)

// Report is the outcome of a soak. Err() folds the acceptance checks.
type Report struct {
	// Profile is the equilibrium the chaotic ring agreed on.
	Profile game.Profile
	// ProfileMatches is true when the chaotic profile equals the
	// fault-free dbr.Solve profile exactly.
	ProfileMatches bool
	// PotentialGap is |U(chaotic) − U(fault-free)|.
	PotentialGap float64
	// IsNash is the deviation check on the chaotic profile.
	IsNash bool
	// BudgetResidual is Σ_i (balance_after − balance_before) over the
	// members; budget balance demands exactly 0 wei.
	BudgetResidual chain.Wei
	// Settled is the contract's final settled flag.
	Settled bool
	// ChainVerified is the result of the full chain re-validation.
	ChainVerified bool
	// Faults counts what the injector actually did.
	Faults faults.Counts

	// Durable is true when the settlement ran on a WAL-backed chain under
	// crash cycles; the three fields below are only meaningful then.
	Durable bool
	// Crashes counts completed kill/recover cycles.
	Crashes int
	// RecoveredExact is true when every recovery reproduced exactly the
	// durable prefix: sealed height, state root, and pending-pool size all
	// equal to what the WAL had acknowledged at the kill, and the recovered
	// chain re-verified end to end.
	RecoveredExact bool
	// PITRVerified is the point-in-time recovery spot check: a read-only
	// view at a mid-soak height must rebuild and re-verify.
	PITRVerified bool
}

// Err returns nil when every acceptance check of the soak holds.
func (r *Report) Err() error {
	var bad []string
	if !r.ProfileMatches {
		bad = append(bad, fmt.Sprintf("ring equilibrium differs from fault-free solve (potential gap %g)", r.PotentialGap))
	}
	if !r.IsNash {
		bad = append(bad, "ring profile is not a Nash equilibrium")
	}
	if r.BudgetResidual != 0 {
		bad = append(bad, fmt.Sprintf("settlement not budget-balanced: residual %d wei", r.BudgetResidual))
	}
	if !r.Settled {
		bad = append(bad, "contract did not reach settled state")
	}
	if !r.ChainVerified {
		bad = append(bad, "chain re-validation failed")
	}
	if r.Durable {
		if r.Crashes == 0 {
			bad = append(bad, "crash soak completed without a single kill/recover cycle")
		}
		if !r.RecoveredExact {
			bad = append(bad, "a recovery did not reproduce the durable prefix exactly")
		}
		if !r.PITRVerified {
			bad = append(bad, "point-in-time recovery view failed to rebuild")
		}
	}
	if len(bad) == 0 {
		return nil
	}
	return errors.New("chaos: " + strings.Join(bad, "; "))
}

// soak runs one soak within timeout and returns its report. An
// operational error or a breached acceptance check fails t, with the
// flight recorder's journal in the log: the injections, retries and
// recoveries that led up to the failure. -short skips every soak.
func soak(t *testing.T, opts Options, timeout time.Duration) *Report {
	t.Helper()
	if testing.Short() {
		t.Skip("chaos soak")
	}
	obs.FlightReset()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	rep, err := Run(ctx, opts)
	if err == nil {
		err = rep.Err()
	}
	if err != nil {
		if dump, derr := obs.FlightDumpJSON(err.Error()); derr == nil {
			t.Log("flight recorder:\n" + string(dump))
		}
		t.Fatal(err)
	}
	return rep
}

// Run executes the soak: DBR ring over fault-injected TCP, then the full
// settlement lifecycle through fault-injected RPC clients. The returned
// error covers operational failures (setup, timeouts); acceptance breaches
// live in Report.Err().
func Run(ctx context.Context, opts Options) (*Report, error) {
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: opts.GameSeed, N: opts.Orgs})
	if err != nil {
		return nil, err
	}
	inj, err := faults.NewInjector(opts.Plan)
	if err != nil {
		return nil, err
	}
	defer inj.Close()

	// A seeded plan also seeds the trace/span ID generator, so two soaks of
	// the same seed produce bit-identical trace topologies (asserted by
	// TestSeededSoakDeterministicTraceTopology).
	if opts.Plan.Seed != 0 {
		obs.SeedIDs(opts.Plan.Seed)
	}
	ctx, span := obs.Span(ctx, "chaos.run")
	defer span.End()
	obs.FlightRecord("chaos", "soak-start", fmt.Sprintf("%+v", opts))

	// Phase 1: the token ring over faulty loopback TCP.
	profile, err := runRing(ctx, cfg, inj)
	if err != nil {
		return nil, fmt.Errorf("chaos ring: %w", err)
	}
	rep := &Report{Profile: profile}

	ref, err := dbr.SolveCtx(ctx, cfg, nil, dbr.Options{})
	if err != nil {
		return nil, err
	}
	rep.ProfileMatches = true
	for i := range profile {
		if profile[i] != ref.Profile[i] {
			rep.ProfileMatches = false
		}
	}
	rep.PotentialGap = math.Abs(cfg.Potential(profile) - cfg.Potential(ref.Profile))
	rep.IsNash = cfg.CheckNash(profile, 60, 1e-2).IsNash
	if a := opts.Audit; a != nil {
		// The ring's agreed profile traversed faulty links; audit it
		// independently of the in-process reference solve above (whose own
		// hooks already fired inside dbr.Solve).
		a.CheckTransfers(cfg, profile, "chaos")
		a.CheckNash(cfg, profile, verify.NashSlack, "chaos")
	}

	// Phase 2: settle the equilibrium contributions on-chain through
	// faulty RPC links — on a crash-recovering durable chain when the plan
	// schedules kill cycles.
	if err := runSettlement(ctx, cfg, opts, inj, profile, rep); err != nil {
		return nil, fmt.Errorf("chaos settlement: %w", err)
	}
	rep.Faults = inj.Counts()
	return rep, nil
}

// runRing executes the distributed DBR protocol over injector-wrapped TCP
// nodes and returns the agreed profile.
func runRing(ctx context.Context, cfg *game.Config, inj *faults.Injector) (game.Profile, error) {
	tcp, err := transport.LoopbackMesh(dbr.PeerNames(cfg.N()), cfg.N()+4)
	if err != nil {
		return nil, err
	}
	trs := make([]transport.Transport, len(tcp))
	for i, node := range tcp {
		defer node.Close()
		trs[i] = inj.Wrap(node)
	}
	return dbr.RunRing(ctx, cfg, trs, dbr.Options{TokenTimeout: tokenTimeout, SuspectAfter: suspectAfter})
}

// runSettlement settles profile on a chain served over RPC while the
// authority seals on a fixed cadence, and fills the settlement fields of
// rep. With crash cycles the chain is durable and a crasher kills and
// recovers it on the plan's schedule (crash_harness_test.go). Each member
// walks its own lifecycle (Settlement.Walk) through its own fault lane;
// the batch lane submits the profile's four stages through one.
func runSettlement(ctx context.Context, cfg *game.Config, opts Options, inj *faults.Injector, profile game.Profile, rep *Report) error {
	gen, err := chain.NewSettlement(cfg, opts.GameSeed)
	if err != nil {
		return err
	}
	box := &chainBox{gen: gen}
	var bc *chain.Blockchain
	if opts.CrashCycles > 0 {
		if box.dir, err = os.MkdirTemp("", "tradefl-crashsoak-"); err != nil {
			return err
		}
		defer os.RemoveAll(box.dir)
		if bc, err = chain.OpenDurable(box.dir, gen.Authority, gen.Params, gen.Alloc); err != nil {
			return err
		}
		box.tracker = newDurableTracker(bc)
		rep.Durable, rep.RecoveredExact = true, true
	} else if bc, err = chain.NewBlockchain(gen.Authority, gen.Params, gen.Alloc); err != nil {
		return err
	}
	if err := box.serve(bc, "127.0.0.1:0"); err != nil {
		return err
	}
	addr := box.addr
	defer func() {
		box.stopServer()
		if cur := box.current(); cur.WAL() != nil {
			_ = cur.CloseDurable()
		}
	}()

	// The authority seals on a fixed cadence on whichever incarnation is
	// current; a seal against a just-killed chain fails on the dead WAL and
	// the next tick seals the recovered one. The crasher fires on the
	// seeded schedule while the members settle.
	bg, stop := context.WithCancel(ctx)
	defer stop()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(sealInterval)
		defer tick.Stop()
		for {
			select {
			case <-bg.Done():
				return
			case <-tick.C:
				if _, err := box.current().SealBlock(); err != nil {
					chaosLog.Debug("seal failed", "err", err)
				}
			}
		}
	}()
	crashErr := make(chan error, 1)
	if box.tracker != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, d := range faults.KillSchedule(opts.Plan.Seed, opts.CrashCycles, opts.CrashMin, opts.CrashMax) {
				select {
				case <-bg.Done():
					return
				case <-time.After(d):
				}
				if err := box.crash(rep); err != nil {
					crashErr <- err
					return
				}
			}
		}()
	}

	settleCtx, cancel := context.WithTimeout(ctx, settleTimeout)
	defer cancel()
	// A crash outage rejects every request for its whole window, so the
	// retry budget must outlast a kill and recovery, not one lost packet.
	client := func(lane string) *chain.Client {
		return chain.NewClientOpts(addr, chain.ClientOptions{
			Timeout:     5 * time.Second,
			MaxRetries:  30,
			BaseBackoff: 5 * time.Millisecond,
			MaxBackoff:  100 * time.Millisecond,
			Transport:   inj.RoundTripper(lane, nil),
		})
	}
	var settled error
	if opts.Batch {
		settled = settleStages(settleCtx, client("batch"), gen, profile)
	} else {
		errs := make([]error, cfg.N())
		var members sync.WaitGroup
		for i := range errs {
			members.Add(1)
			go func() {
				defer members.Done()
				if err := gen.Walk(settleCtx, client(fmt.Sprintf("org-%d", i)), i, profile[i], false, io.Discard); err != nil {
					errs[i] = fmt.Errorf("member %d: %w", i, err)
				}
			}()
		}
		members.Wait()
		settled = errors.Join(errs...)
	}
	stop()
	wg.Wait()
	select {
	case err := <-crashErr:
		return err
	default:
	}
	if settled != nil {
		return settled
	}
	// The soak must prove recovery even when settlement finished before the
	// first scheduled kill (tiny games on a fast box): force one cycle.
	if box.tracker != nil && rep.Crashes == 0 {
		if err := box.crash(rep); err != nil {
			return err
		}
	}

	// Flush any stragglers the last tick missed (e.g. the final record).
	final := box.current()
	if _, err := final.SealBlock(); err != nil {
		return err
	}
	for _, m := range gen.Params.Members {
		rep.BudgetResidual += final.Balance(m) - gen.Alloc[m]
	}
	if err := final.ContractView(func(c *chain.Contract) error {
		rep.Settled = c.Settled
		return nil
	}); err != nil {
		return err
	}
	rep.ChainVerified = final.VerifyChain() == nil
	if box.tracker != nil {
		rep.PITRVerified = box.pitr(final.Height() / 2)
	}
	return nil
}

// settleStages is the batch lane: profile's four Fig. 3 stages, each one
// SubmitTxBatch over c whose receipts must all be OK before the next stage
// goes, as settle_rpc settles. The authority sealer seals them.
func settleStages(ctx context.Context, c *chain.Client, gen *chain.Settlement, profile game.Profile) error {
	stages, err := gen.Stages(profile)
	if err != nil {
		return err
	}
	for k, stage := range stages {
		results, err := c.SubmitTxBatchCtx(ctx, stage)
		if err != nil {
			return fmt.Errorf("stage %d: %w", k, err)
		}
		for j, r := range results {
			if !r.OK {
				return fmt.Errorf("stage %d tx %d rejected: %s", k, j, r.Error)
			}
		}
		for j, r := range results {
			if err := c.AwaitReceipt(ctx, r.TxHash); err != nil {
				return fmt.Errorf("stage %d tx %d: %w", k, j, err)
			}
		}
	}
	return nil
}
