// Command tradefl-org is one organization's settlement client: it connects
// to a tradefl-chain node over JSON-RPC and walks the Fig. 3 lifecycle for
// its own account — depositSubmit → contributionSubmit → payoffCalculate →
// payoffTransfer → profileRecord — polling the contract status between
// phases so any number of tradefl-org processes can settle concurrently.
//
// Usage (after starting `tradefl-chain -listen 127.0.0.1:8545 -seed 7`):
//
//	tradefl-org -rpc 127.0.0.1:8545 -seed 7 -index 3            # solve + settle
//	tradefl-org -rpc 127.0.0.1:8545 -seed 7 -index 3 -d 0.4 -f 4e9
//
// The account and the deposit come from chain.NewSettlement of the shared
// seed, the settlement the chain node deploys.
package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"strings"
	"time"

	"tradefl/internal/chain"
	"tradefl/internal/cli"
	"tradefl/internal/dbr"
	"tradefl/internal/game"
	"tradefl/internal/obs"
)

const (
	// pollInterval paces the contract-status and receipt polls.
	pollInterval = 500 * time.Millisecond
	// settleTimeout bounds the whole lifecycle.
	settleTimeout = 2 * time.Minute
)

func main() { cli.Main("tradefl-org", run) }

func run(args []string) error { return command().Exec(args) }

// command is tradefl-org's flags and body.
func command() cli.Command {
	fs := flag.NewFlagSet("tradefl-org", flag.ContinueOnError)
	rpc := fs.String("rpc", "127.0.0.1:8545", "chain node RPC address")
	seed := fs.Int64("seed", 7, "shared seed of the game instance and accounts")
	index := fs.Int("index", -1, "this organization's index")
	d := fs.Float64("d", -1, "data fraction to report, with -f (default: solve with DBR)")
	f := fs.Float64("f", -1, "CPU frequency to report, with -d (default: solve with DBR)")
	commit := fs.Bool("commit", false, "use commit-reveal contribution reporting (all members must)")
	return cli.Command{Flags: fs, Verify: true, Run: func(ctx context.Context, _ *obs.DiagServer) error {
		if (*d < 0) != (*f < 0) {
			return errors.New("-d and -f report one contribution: give both or neither")
		}
		return settle(ctx, *rpc, *seed, *index, game.Strategy{D: *d, F: *f}, *commit)
	}}
}

// settle walks the Fig. 3 lifecycle for organization index, reporting
// strategy, or the DBR equilibrium's strategy when strategy is negative.
// SIGINT/SIGTERM (ctx) aborts it between polls; every phase is idempotent
// (isAlready), so a re-run resumes where this one stopped.
func settle(ctx context.Context, rpc string, seed int64, index int, strategy game.Strategy, commit bool) error {
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: seed})
	if err != nil {
		return err
	}
	if index < 0 || index >= cfg.N() {
		return fmt.Errorf("-index %d out of range [0,%d)", index, cfg.N())
	}

	// The chain node deployed this settlement from the same seed.
	gen, err := chain.NewSettlement(cfg, seed)
	if err != nil {
		return err
	}
	acct, dep := gen.Accounts[index], gen.Deposits[index]
	fmt.Printf("organization %d: address %s\n", index, acct.Address())

	// Decide the contribution: flags, or the DBR equilibrium (parameters
	// are common knowledge and the dynamics deterministic, so every
	// organization computes the same profile).
	if strategy.D < 0 {
		res, err := dbr.Solve(cfg, nil, dbr.Options{})
		if err != nil {
			return err
		}
		strategy = res.Profile[index]
		fmt.Printf("solved equilibrium: d=%.4f f=%.2f GHz\n", strategy.D, strategy.F/1e9)
	}

	client := chain.NewClient(rpc)
	deadline := time.Now().Add(settleTimeout)
	pollWait := func() error {
		select {
		case <-ctx.Done():
			return fmt.Errorf("interrupted: %w", ctx.Err())
		case <-time.After(pollInterval):
			return nil
		}
	}
	send := func(fn chain.Function, fnArgs any, value chain.Wei) error {
		nonce, err := client.Nonce(acct.Address())
		if err != nil {
			return err
		}
		tx, err := chain.NewTransaction(acct, nonce, fn, fnArgs, value)
		if err != nil {
			return err
		}
		if err := client.SubmitTx(tx); err != nil {
			return err
		}
		if _, err := client.SealBlock(); err != nil {
			return err
		}
		hash, err := tx.Hash()
		if err != nil {
			return err
		}
		// A concurrent process's seal may have included the tx before our
		// SealBlock ran, so poll the chain-wide receipt index for the
		// authoritative outcome.
		for {
			rcpt, err := client.Receipt(hash)
			if err == nil {
				if !rcpt.OK {
					return errors.New(rcpt.Error)
				}
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("receipt for %s: %w", fn, err)
			}
			if werr := pollWait(); werr != nil {
				return werr
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
			if time.Now().After(deadline) {
				return fmt.Errorf("timed out waiting for %s (status %+v)", phase, st)
			}
			if werr := pollWait(); werr != nil {
				return werr
			}
		}
	}

	// Phase 1: deposit the bond.
	if err := send(chain.FnDepositSubmit, nil, dep); err != nil && !isAlready(err) {
		return fmt.Errorf("deposit: %w", err)
	}
	fmt.Printf("deposited %v tokens\n", chain.FromWei(dep))

	// Phase 2: once everyone registered, report the contribution.
	if err := waitFor("registrations", func(st chain.ContractStatus) bool {
		return st.Registered == st.Members
	}); err != nil {
		return err
	}
	contrib := chain.Contribution{D: strategy.D, F: strategy.F}
	if commit {
		// Commit-reveal: bind to a salted hash first, reveal once every
		// member has committed (no last-mover advantage).
		saltBytes := make([]byte, 16)
		if _, err := rand.Read(saltBytes); err != nil {
			return err
		}
		salt := hex.EncodeToString(saltBytes)
		ca := chain.CommitArgs{Hash: chain.CommitmentHash(contrib, salt)}
		if err := send(chain.FnContributionCommit, ca, 0); err != nil && !isAlready(err) {
			return fmt.Errorf("commit: %w", err)
		}
		fmt.Println("contribution committed")
		reveal := func() error {
			return send(chain.FnContributionReveal, chain.RevealArgs{Contribution: contrib, Salt: salt}, 0)
		}
		// Reveal is rejected until the last commitment lands; retry on the
		// poll cadence.
		for {
			err := reveal()
			if err == nil || isAlready(err) {
				break
			}
			if !strings.Contains(err.Error(), "committed") {
				return fmt.Errorf("reveal: %w", err)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("reveal timed out: %w", err)
			}
			if werr := pollWait(); werr != nil {
				return werr
			}
		}
		fmt.Println("contribution revealed")
	} else {
		if err := send(chain.FnContributionSubmit, contrib, 0); err != nil && !isAlready(err) {
			return fmt.Errorf("submit: %w", err)
		}
		fmt.Println("contribution submitted")
	}

	// Phase 3: calculate (idempotent; any member may win the race),
	// transfer, record.
	if err := waitFor("submissions", func(st chain.ContractStatus) bool {
		return st.Submitted == st.Members
	}); err != nil {
		return err
	}
	if err := send(chain.FnPayoffCalculate, nil, 0); err != nil && !isAlready(err) {
		return fmt.Errorf("calculate: %w", err)
	}
	before, err := client.Balance(acct.Address())
	if err != nil {
		return err
	}
	if err := send(chain.FnPayoffTransfer, nil, 0); err != nil && !isAlready(err) {
		return fmt.Errorf("transfer: %w", err)
	}
	if err := send(chain.FnProfileRecord, nil, 0); err != nil && !isAlready(err) {
		return fmt.Errorf("record: %w", err)
	}
	after, err := client.Balance(acct.Address())
	if err != nil {
		return err
	}
	if err := client.VerifyChain(); err != nil {
		return fmt.Errorf("chain verification: %w", err)
	}
	fmt.Printf("settled: received %v tokens (deposit %v + redistribution %+v)\n",
		chain.FromWei(after-before), chain.FromWei(dep), chain.FromWei(after-before-dep))
	return nil
}

// isAlready matches the idempotency errors a retried phase produces so a
// restarted client can resume mid-lifecycle.
func isAlready(err error) bool {
	if err == nil {
		return false
	}
	msg := err.Error()
	return errors.Is(err, chain.ErrAlreadyRegistered) ||
		errors.Is(err, chain.ErrAlreadySubmitted) ||
		errors.Is(err, chain.ErrAlreadySettled) ||
		strings.Contains(msg, "already")
}
