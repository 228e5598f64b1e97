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
// The fault schedule is a pure function of the plan seed, so a failing
// soak reproduces from its seed alone.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
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
	// Orgs is the number of organizations (default 4).
	Orgs int
	// GameSeed generates the Table II game instance and the chain accounts
	// (default 7, the repo-wide reference seed).
	GameSeed int64
	// TokenTimeout is the ring's loss-detection timeout (default 200ms).
	TokenTimeout time.Duration
	// SuspectAfter is the ring's same-peer resend budget (default 8: a
	// spurious crash suspicion then needs SuspectAfter+1 consecutive
	// losses on one link, vanishingly unlikely at any sane drop rate).
	// Negative is rejected.
	SuspectAfter int
	// SealInterval is the authority's block cadence (default 25ms).
	SealInterval time.Duration
	// SettleTimeout bounds the settlement phase (default 2m).
	SettleTimeout time.Duration
	// CrashCycles > 0 runs the settlement phase on a WAL-backed chain and
	// kill -9s the validator that many times mid-settlement (aborting the
	// WAL without flushing, chopping a seeded number of bytes off the torn
	// tail, recovering, and re-serving on the same address). Every recovery
	// must reproduce exactly the durable prefix — the operations whose
	// submitters saw an acknowledgement.
	CrashCycles int
	// CrashMin/CrashMax bound the seeded uptime between recoveries
	// (defaults 150ms..500ms).
	CrashMin, CrashMax time.Duration
	// SnapshotEvery checkpoints (incremental snapshot + WAL GC) after every
	// Nth recovery (default 2; negative disables mid-soak checkpoints).
	SnapshotEvery int
	// WALDir is the durable chain's directory (default: a fresh temp dir,
	// removed after the soak).
	WALDir string
	// Batch routes member submissions through a shared BatchSubmitter, so
	// the soak exercises SubmitTxBatch (one round-trip, one WAL group
	// commit per flush) instead of per-tx SubmitTx.
	Batch bool
}

func (o Options) withDefaults() Options {
	if o.Orgs <= 0 {
		o.Orgs = 4
	}
	if o.GameSeed == 0 {
		o.GameSeed = 7
	}
	if o.TokenTimeout <= 0 {
		o.TokenTimeout = 200 * time.Millisecond
	}
	if o.SuspectAfter == 0 {
		o.SuspectAfter = 8
	}
	if o.SealInterval <= 0 {
		o.SealInterval = 25 * time.Millisecond
	}
	if o.SettleTimeout <= 0 {
		o.SettleTimeout = 2 * time.Minute
	}
	if o.CrashCycles > 0 {
		if o.CrashMin <= 0 {
			o.CrashMin = 150 * time.Millisecond
		}
		if o.CrashMax < o.CrashMin {
			o.CrashMax = o.CrashMin + 350*time.Millisecond
		}
		if o.SnapshotEvery == 0 {
			o.SnapshotEvery = 2
		}
	}
	return o
}

// Report is the outcome of a soak. Err() folds the acceptance checks.
type Report struct {
	Seed int64  `json:"seed"`
	Orgs int    `json:"orgs"`
	Plan string `json:"plan"`
	// Profile is the equilibrium the chaotic ring agreed on.
	Profile game.Profile `json:"profile"`
	// ProfileMatches is true when the chaotic profile equals the
	// fault-free dbr.Solve profile exactly.
	ProfileMatches bool `json:"profileMatches"`
	// PotentialGap is |U(chaotic) − U(fault-free)|.
	PotentialGap float64 `json:"potentialGap"`
	// IsNash is the deviation check on the chaotic profile.
	IsNash bool `json:"isNash"`
	// BudgetResidual is Σ_i (balance_after − balance_before) over the
	// members; budget balance demands exactly 0 wei.
	BudgetResidual chain.Wei `json:"budgetResidualWei"`
	// Settled is the contract's final settled flag.
	Settled bool `json:"settled"`
	// ChainVerified is the result of the full chain re-validation.
	ChainVerified bool `json:"chainVerified"`
	// Faults counts what the injector actually did.
	Faults faults.Counts `json:"faults"`
	// RingElapsed and SettleElapsed are the two phases' wall times.
	RingElapsed   time.Duration `json:"ringElapsed"`
	SettleElapsed time.Duration `json:"settleElapsed"`

	// Durable is true when the settlement ran on a WAL-backed chain under
	// crash cycles; the four fields below are only meaningful then.
	Durable bool `json:"durable,omitempty"`
	// Crashes counts completed kill/recover cycles; Checkpoints counts
	// mid-soak incremental snapshots.
	Crashes     int `json:"crashes,omitempty"`
	Checkpoints int `json:"checkpoints,omitempty"`
	// RecoveredExact is true when every recovery reproduced exactly the
	// durable prefix: sealed height, state root, and pending-pool size all
	// equal to what the WAL had acknowledged at the kill, and the recovered
	// chain re-verified end to end.
	RecoveredExact bool `json:"recoveredExact,omitempty"`
	// PITRVerified is the point-in-time recovery spot check: a read-only
	// view at a mid-soak height must rebuild and re-verify.
	PITRVerified bool `json:"pitrVerified,omitempty"`
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

// String renders the report for terminal consumption.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos soak: %d orgs, plan %q\n", r.Orgs, r.Plan)
	fmt.Fprintf(&b, "  ring:   converged in %v, matches fault-free NE: %v (potential gap %.3g), Nash: %v\n",
		r.RingElapsed.Round(time.Millisecond), r.ProfileMatches, r.PotentialGap, r.IsNash)
	fmt.Fprintf(&b, "  chain:  settled in %v: %v, budget residual %d wei, verified: %v\n",
		r.SettleElapsed.Round(time.Millisecond), r.Settled, r.BudgetResidual, r.ChainVerified)
	if r.Durable {
		fmt.Fprintf(&b, "  crash:  %d kill/recover cycles, %d checkpoints, recovery exact: %v, PITR view: %v\n",
			r.Crashes, r.Checkpoints, r.RecoveredExact, r.PITRVerified)
	}
	c := r.Faults
	fmt.Fprintf(&b, "  faults: %d dropped, %d duplicated, %d delayed, %d partition/crash rejects, %d rpc failures, %d rpc responses lost, %d rpc delayed (total %d)\n",
		c.Dropped, c.Duplicated, c.Delayed, c.Partitioned+c.CrashRejects, c.RPCFailures, c.RPCLost, c.RPCDelayed, c.Total())
	if err := r.Err(); err != nil {
		fmt.Fprintf(&b, "  RESULT: FAIL — %v\n", err)
	} else {
		fmt.Fprintf(&b, "  RESULT: ok\n")
	}
	return b.String()
}

// Run executes the soak: DBR ring over fault-injected TCP, then the full
// settlement lifecycle through fault-injected RPC clients. The returned
// error covers operational failures (setup, timeouts); acceptance breaches
// live in Report.Err().
func Run(ctx context.Context, opts Options) (*Report, error) {
	opts = opts.withDefaults()
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
	ctx, soak := obs.Span(ctx, "chaos.run")
	defer soak.End()
	obs.FlightRecord("chaos", "soak-start", opts.Plan.String())

	rep := &Report{Seed: opts.Plan.Seed, Orgs: opts.Orgs, Plan: opts.Plan.String()}

	// Phase 1: the token ring over faulty loopback TCP.
	ringStart := time.Now()
	profile, err := runRing(ctx, cfg, opts, inj)
	if err != nil {
		return nil, fmt.Errorf("chaos ring: %w", err)
	}
	rep.RingElapsed = time.Since(ringStart)
	rep.Profile = profile

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
	if a := verify.Global(); a != nil {
		// The ring's agreed profile traversed faulty links; audit it
		// independently of the in-process reference solve above (whose own
		// hooks already fired inside dbr.Solve).
		a.CheckTransfers(cfg, profile, "chaos")
		a.CheckNash(cfg, profile, verify.NashSlack, "chaos")
	}

	// Phase 2: settle the equilibrium contributions on-chain through
	// faulty RPC links — on a crash-recovering durable chain when the plan
	// schedules kill cycles.
	settleStart := time.Now()
	if opts.CrashCycles > 0 {
		if err := runCrashSettlement(ctx, cfg, opts, inj, profile, rep); err != nil {
			return nil, fmt.Errorf("chaos crash settlement: %w", err)
		}
	} else if err := runSettlement(ctx, cfg, opts, inj, profile, rep); err != nil {
		return nil, fmt.Errorf("chaos settlement: %w", err)
	}
	rep.SettleElapsed = time.Since(settleStart)
	rep.Faults = inj.Counts()
	return rep, nil
}

// runRing executes the distributed DBR protocol over injector-wrapped TCP
// nodes and returns the agreed profile.
func runRing(ctx context.Context, cfg *game.Config, opts Options, inj *faults.Injector) (game.Profile, error) {
	n := cfg.N()
	names := make([]string, n)
	tcp := make([]*transport.TCPNode, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("org-%d", i)
		node, err := transport.NewTCPNode(names[i], "127.0.0.1:0", n+4)
		if err != nil {
			return nil, err
		}
		tcp[i] = node
	}
	defer func() {
		for _, node := range tcp {
			_ = node.Close()
		}
	}()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			tcp[i].RegisterPeer(names[j], tcp[j].Addr())
		}
	}
	nodes := make([]*dbr.Node, n)
	for i := 0; i < n; i++ {
		node, err := dbr.NewNode(cfg, i, inj.Wrap(tcp[i]), names, dbr.Options{
			TokenTimeout: opts.TokenTimeout,
			SuspectAfter: opts.SuspectAfter,
		})
		if err != nil {
			return nil, err
		}
		nodes[i] = node
	}
	results := make([]game.Profile, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = nodes[i].Run(ctx)
		}(i)
	}
	if err := nodes[0].StartCtx(ctx); err != nil {
		return nil, err
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
	}
	for i := 1; i < n; i++ {
		for k := range results[i] {
			if results[i][k] != results[0][k] {
				return nil, fmt.Errorf("node %d disagrees with node 0 at org %d", i, k)
			}
		}
	}
	return results[0], nil
}

// runSettlement drives every member's Fig. 3 lifecycle concurrently
// through fault-injected RPC clients against a live server, sealing on a
// fixed cadence, and fills the settlement fields of rep.
func runSettlement(ctx context.Context, cfg *game.Config, opts Options, inj *faults.Injector, profile game.Profile, rep *Report) error {
	n := cfg.N()
	gen, err := chain.NewSettlement(cfg, opts.GameSeed)
	if err != nil {
		return err
	}
	members := gen.Params.Members
	bc, err := chain.NewBlockchain(gen.Authority, gen.Params, gen.Alloc)
	if err != nil {
		return err
	}
	srv, err := chain.NewServer(bc, "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); _ = srv.Serve() }()
	defer func() { _ = srv.Close(); <-serveDone }()

	// With batching on, every member's submissions funnel through one
	// shared micro-batcher (its own fault lane), so concurrent lifecycle
	// phases coalesce into SubmitTxBatch calls.
	var batcher *chain.BatchSubmitter
	if opts.Batch {
		batchClient := chain.NewClientOpts(srv.Addr(), chain.ClientOptions{
			Timeout:     5 * time.Second,
			MaxRetries:  10,
			BaseBackoff: 5 * time.Millisecond,
			MaxBackoff:  100 * time.Millisecond,
			Transport:   inj.RoundTripper("batch", nil),
		})
		batcher = chain.NewBatchSubmitter(batchClient, chain.BatchOptions{})
		defer batcher.Close()
	}

	before := make([]chain.Wei, n)
	for i, m := range members {
		before[i] = bc.Balance(m)
	}

	// Authority seals on a fixed cadence until the members are done.
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
				if _, err := bc.SealBlock(); err != nil {
					chaosLog.Warn("seal failed", "err", err)
				}
			}
		}
	}()

	settleCtx, cancel := context.WithTimeout(ctx, opts.SettleTimeout)
	defer cancel()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// JitterSeed is left 0 on purpose: the client derives it from
			// the injector's plan seed through the fault transport (per
			// lane, so each member gets its own stream), keeping the whole
			// soak a pure function of the seed.
			client := chain.NewClientOpts(srv.Addr(), chain.ClientOptions{
				Timeout:     5 * time.Second,
				MaxRetries:  10,
				BaseBackoff: 5 * time.Millisecond,
				MaxBackoff:  100 * time.Millisecond,
				Transport:   inj.RoundTripper(fmt.Sprintf("org-%d", i), nil),
			})
			errs[i] = settleMember(settleCtx, client, batcher, gen.Accounts[i], gen.Deposits[i], profile[i])
		}(i)
	}
	wg.Wait()
	stopSealer()
	sealerWG.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("member %d: %w", i, err)
		}
	}
	// Flush any stragglers the last tick missed (e.g. the final record).
	if _, err := bc.SealBlock(); err != nil {
		return err
	}

	var residual chain.Wei
	for i, m := range members {
		residual += bc.Balance(m) - before[i]
	}
	rep.BudgetResidual = residual
	err = bc.ContractView(func(c *chain.Contract) error {
		rep.Settled = c.Settled
		return nil
	})
	if err != nil {
		return err
	}
	rep.ChainVerified = bc.VerifyChain() == nil
	return nil
}

// settleMember walks one organization's deposit (of dep) → contribution
// → calculate → transfer → record lifecycle through its (faulty) client,
// tolerating every idempotency rejection a retried or racing phase
// produces. A non-nil batcher replaces per-tx submission with the shared
// batched path; receipts are still polled through the member's own client.
func settleMember(ctx context.Context, client *chain.Client, batcher *chain.BatchSubmitter, acct *chain.Account, dep chain.Wei, strat game.Strategy) error {
	const poll = 10 * time.Millisecond
	send := func(fn chain.Function, fnArgs any, value chain.Wei) error {
		nonce, err := client.Nonce(acct.Address())
		if err != nil {
			return err
		}
		tx, err := chain.NewTransaction(acct, nonce, fn, fnArgs, value)
		if err != nil {
			return err
		}
		if batcher != nil {
			err = batcher.Submit(*tx)
		} else {
			err = client.SubmitTxCtx(ctx, tx)
		}
		if err != nil {
			return err
		}
		hash, err := tx.Hash()
		if err != nil {
			return err
		}
		for {
			rcpt, err := client.Receipt(hash)
			if err == nil {
				if !rcpt.OK {
					return errors.New(rcpt.Error)
				}
				return nil
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("receipt for %s: %w", fn, ctx.Err())
			case <-time.After(poll):
			}
		}
	}
	waitFor := func(phase string, ok func(chain.ContractStatus) bool) error {
		for {
			st, err := client.Status()
			if err != nil {
				return err
			}
			if ok(st) {
				return nil
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("waiting for %s: %w", phase, ctx.Err())
			case <-time.After(poll):
			}
		}
	}

	if err := send(chain.FnDepositSubmit, nil, dep); err != nil && !isAlready(err) {
		return fmt.Errorf("deposit: %w", err)
	}
	if err := waitFor("registrations", func(st chain.ContractStatus) bool {
		return st.Registered == st.Members
	}); err != nil {
		return err
	}
	contrib := chain.Contribution{D: strat.D, F: strat.F}
	if err := send(chain.FnContributionSubmit, contrib, 0); err != nil && !isAlready(err) {
		return fmt.Errorf("submit: %w", err)
	}
	if err := waitFor("submissions", func(st chain.ContractStatus) bool {
		return st.Submitted == st.Members
	}); err != nil {
		return err
	}
	if err := send(chain.FnPayoffCalculate, nil, 0); err != nil && !isAlready(err) {
		return fmt.Errorf("calculate: %w", err)
	}
	if err := send(chain.FnPayoffTransfer, nil, 0); err != nil && !isAlready(err) {
		return fmt.Errorf("transfer: %w", err)
	}
	if err := send(chain.FnProfileRecord, nil, 0); err != nil && !isAlready(err) {
		return fmt.Errorf("record: %w", err)
	}
	return nil
}

// isAlready matches the idempotency rejections of a retried or racing
// lifecycle phase (same contract semantics cmd/tradefl-org relies on).
func isAlready(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, chain.ErrAlreadyRegistered) ||
		errors.Is(err, chain.ErrAlreadySubmitted) ||
		errors.Is(err, chain.ErrAlreadySettled) ||
		strings.Contains(err.Error(), "already")
}

// ParseSpec parses a -chaos specification: comma-separated key=value
// pairs. Fault keys (seed, drop, dup, delayp, delaymin, delaymax,
// partition, crash, rpcfail, rpclost, rpcdelayp) go to the fault plan;
// harness keys tune the soak itself:
//
//	orgs=N        ring/contract size
//	game=SEED     game-instance and account seed
//	token=DUR     ring token timeout
//	suspect=N     same-peer resends before a crash suspicion
//	seal=DUR      authority seal cadence
//	settle=DUR    settlement deadline
//
// Durable crash-soak keys (crashcycles > 0 switches the settlement phase
// to a WAL-backed chain with kill/recover cycles):
//
//	crashcycles=N  validator kill -9/recover cycles mid-settlement
//	crashmin=DUR   minimum uptime between recoveries (default 150ms)
//	crashmax=DUR   maximum uptime between recoveries (default 500ms)
//	snapevery=N    checkpoint after every Nth recovery (default 2, -1 off)
//	waldir=PATH    chain WAL directory (default: fresh temp dir)
//
// Submission key:
//
//	batch=0/1      route submissions through a shared SubmitTxBatch
//	               micro-batcher (default 0)
func ParseSpec(spec string) (Options, error) {
	var opts Options
	if strings.TrimSpace(spec) == "" {
		return opts, nil
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return opts, fmt.Errorf("chaos: %q is not key=value", field)
		}
		handled, err := faults.ApplyKey(&opts.Plan, key, val)
		if err != nil {
			return opts, err
		}
		if handled {
			continue
		}
		switch key {
		case "orgs":
			n, err := strconv.Atoi(val)
			if err != nil || n < 2 {
				return opts, fmt.Errorf("chaos: orgs = %q (need an integer ≥ 2)", val)
			}
			opts.Orgs = n
		case "game":
			s, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return opts, fmt.Errorf("chaos: game = %q: %v", val, err)
			}
			opts.GameSeed = s
		case "token":
			d, err := time.ParseDuration(val)
			if err != nil {
				return opts, fmt.Errorf("chaos: token = %q: %v", val, err)
			}
			opts.TokenTimeout = d
		case "suspect":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return opts, fmt.Errorf("chaos: suspect = %q (need an integer ≥ 0)", val)
			}
			opts.SuspectAfter = n
		case "seal":
			d, err := time.ParseDuration(val)
			if err != nil {
				return opts, fmt.Errorf("chaos: seal = %q: %v", val, err)
			}
			opts.SealInterval = d
		case "settle":
			d, err := time.ParseDuration(val)
			if err != nil {
				return opts, fmt.Errorf("chaos: settle = %q: %v", val, err)
			}
			opts.SettleTimeout = d
		case "crashcycles":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return opts, fmt.Errorf("chaos: crashcycles = %q (need an integer ≥ 0)", val)
			}
			opts.CrashCycles = n
		case "crashmin":
			d, err := time.ParseDuration(val)
			if err != nil {
				return opts, fmt.Errorf("chaos: crashmin = %q: %v", val, err)
			}
			opts.CrashMin = d
		case "crashmax":
			d, err := time.ParseDuration(val)
			if err != nil {
				return opts, fmt.Errorf("chaos: crashmax = %q: %v", val, err)
			}
			opts.CrashMax = d
		case "snapevery":
			n, err := strconv.Atoi(val)
			if err != nil {
				return opts, fmt.Errorf("chaos: snapevery = %q: %v", val, err)
			}
			opts.SnapshotEvery = n
		case "waldir":
			opts.WALDir = val
		case "batch":
			on, err := strconv.ParseBool(val)
			if err != nil {
				return opts, fmt.Errorf("chaos: batch = %q: %v", val, err)
			}
			opts.Batch = on
		default:
			return opts, fmt.Errorf("chaos: unknown key %q", key)
		}
	}
	if err := opts.Plan.Validate(); err != nil {
		return opts, err
	}
	return opts, nil
}
