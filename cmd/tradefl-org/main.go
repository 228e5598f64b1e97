// Command tradefl-org is one organization of a TradeFL deployment. It
// best-responds in the DBR token ring (Algorithm 2) over TCP with its
// peers, with no central server, and then walks the Fig. 3 lifecycle for
// its own account on a tradefl-chain node over JSON-RPC — depositSubmit →
// contributionSubmit → payoffCalculate → payoffTransfer → profileRecord —
// reporting the strategy the ring decided and polling the contract status
// between phases, so every organization settles concurrently.
//
// One process per organization (after `tradefl-chain -listen
// 127.0.0.1:8545 -seed 7`), listening on its own -peers entry:
//
//	tradefl-org -seed 7 -index 3 -peers ":7000,:7001,...,:7009" -rpc 127.0.0.1:8545
//
// The whole deployment in one process, on an in-memory chain node:
//
//	tradefl-org -local -seed 7
//
// The game, the accounts and the deposits derive from the shared seed, as
// chain.NewSettlement derives them for the chain node.
package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"tradefl/internal/chain"
	"tradefl/internal/cli"
	"tradefl/internal/dbr"
	"tradefl/internal/game"
	"tradefl/internal/obs"
	"tradefl/internal/transport"
)

const (
	// pollInterval paces the contract-status and receipt polls.
	pollInterval = 500 * time.Millisecond
	// settleTimeout bounds the whole lifecycle.
	settleTimeout = 2 * time.Minute
	// ringTimeout bounds the ring, from start to agreement.
	ringTimeout = 2 * time.Minute
	// tokenTimeout arms the ring's token-timeout crash recovery.
	tokenTimeout = 10 * time.Second
	// ringBuffer is a ring endpoint's inbound frame buffer.
	ringBuffer = 16
)

func main() { cli.Main("tradefl-org", run) }

func run(args []string) error { return command().Exec(args) }

// command is tradefl-org's flags and body. Conflicting or malformed mode
// flags are rejected before any network I/O.
func command() cli.Command {
	fs := flag.NewFlagSet("tradefl-org", flag.ContinueOnError)
	rpc := fs.String("rpc", "127.0.0.1:8545", "chain node RPC address")
	seed := fs.Int64("seed", 7, "shared seed of the game instance and accounts")
	index := fs.Int("index", -1, "this organization's index")
	peers := fs.String("peers", "", "comma-separated ring addresses of every organization, in index order")
	listen := fs.String("listen", "", "ring listen address (default: this organization's -peers entry)")
	local := fs.Bool("local", false, "run every organization and an in-memory chain node in this process")
	commit := fs.Bool("commit", false, "use commit-reveal contribution reporting (all members must)")
	return cli.Command{Flags: fs, Verify: true, Run: func(ctx context.Context, _ *obs.DiagServer) error {
		cfg, err := game.DefaultConfig(game.GenOptions{Seed: *seed})
		if err != nil {
			return err
		}
		gen, err := chain.NewSettlement(cfg, *seed)
		if err != nil {
			return err
		}
		if *local {
			var stray string
			fs.Visit(func(f *flag.Flag) {
				if f.Name == "index" || f.Name == "peers" || f.Name == "listen" || f.Name == "rpc" {
					stray = f.Name
				}
			})
			if stray != "" {
				return fmt.Errorf("-local runs every organization on its own chain node: -%s does not apply", stray)
			}
			_, err := runLocal(ctx, os.Stdout, cfg, gen, *commit)
			return err
		}
		if *peers == "" {
			return errors.New("give -index and -peers (one organization) or -local (all of them)")
		}
		addrs := strings.Split(*peers, ",")
		if len(addrs) != cfg.N() {
			return fmt.Errorf("-peers has %d entries, want %d", len(addrs), cfg.N())
		}
		if *index < 0 || *index >= cfg.N() {
			return fmt.Errorf("-index %d out of range [0,%d)", *index, cfg.N())
		}
		addr := *listen
		if addr == "" {
			addr = strings.TrimSpace(addrs[*index])
		}
		names := dbr.PeerNames(cfg.N())
		tcp, err := transport.NewTCPNode(names[*index], addr, ringBuffer)
		if err != nil {
			return err
		}
		defer tcp.Close()
		for i, peer := range addrs {
			tcp.RegisterPeer(names[i], strings.TrimSpace(peer))
		}
		return member(ctx, os.Stdout, cfg, gen, *index, tcp, *rpc, *commit)
	}}
}

// runLocal runs the whole deployment in this process: a chain node built as
// tradefl-chain builds one, serving RPC on loopback, and one goroutine per
// organization running member over its own loopback TCP node. Each
// organization writes to its own buffer; w gets the buffers in index order,
// then the contract status. The chain is returned for inspection.
func runLocal(ctx context.Context, w io.Writer, cfg *game.Config, gen *chain.Settlement, commit bool) (_ *chain.Blockchain, err error) {
	bc, err := chain.NewBlockchain(gen.Authority, gen.Params, gen.Alloc)
	if err != nil {
		return nil, err
	}
	srv, err := chain.NewServer(bc, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	defer func() {
		// A pooled connection a client dialled but never used would hold
		// the server's graceful Close for its whole 5 s deadline.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		err = errors.Join(err, srv.Close(), <-served)
	}()
	fmt.Fprintln(w, "chain node: RPC on", srv.Addr())

	mesh, err := transport.LoopbackMesh(dbr.PeerNames(cfg.N()), ringBuffer)
	if err != nil {
		return nil, err
	}
	outs := make([]bytes.Buffer, len(mesh))
	done := make(chan error, len(mesh))
	for i, tcp := range mesh {
		defer tcp.Close()
		go func() {
			err := member(ctx, &outs[i], cfg, gen, i, tcp, srv.Addr(), commit)
			if err != nil {
				err = fmt.Errorf("organization %d: %w", i, err)
			}
			done <- err
		}()
	}
	for range mesh {
		err = errors.Join(err, <-done)
	}
	for i := range outs {
		outs[i].WriteTo(w)
	}
	if err != nil {
		return nil, err
	}
	if err := bc.VerifyChain(); err != nil {
		return nil, fmt.Errorf("chain verification: %w", err)
	}
	status, err := chain.NewClient(srv.Addr()).Status()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "contract status: %+v\nchain verified\n", status)
	return bc, nil
}

// member is one organization: its node of the DBR ring over tcp, whose
// peers are registered, then the Fig. 3 lifecycle against rpc with the
// strategy the ring decided. Organization 0 injects the token only once
// every peer accepts connections: the ring skips a peer it cannot reach and
// freezes that peer's strategy.
func member(ctx context.Context, w io.Writer, cfg *game.Config, gen *chain.Settlement, index int, tcp *transport.TCPNode, rpc string, commit bool) error {
	node, err := dbr.NewNode(cfg, index, tcp, dbr.PeerNames(cfg.N()), dbr.Options{TokenTimeout: tokenTimeout})
	if err != nil {
		return err
	}
	ringCtx, cancel := context.WithTimeout(ctx, ringTimeout)
	defer cancel()
	if index == 0 {
		if err := tcp.AwaitPeers(ringCtx); err != nil {
			return err
		}
		if err := node.Start(ringCtx); err != nil {
			return err
		}
	}
	profile, err := node.Run(ringCtx)
	if err != nil {
		return fmt.Errorf("ring: %w", err)
	}
	return settle(ctx, w, rpc, gen, index, profile[index], commit)
}

// settle walks the Fig. 3 lifecycle for organization index, reporting
// strategy. SIGINT/SIGTERM (ctx) aborts it between polls; every phase is
// idempotent (chain.IsAlready), so a re-run resumes where this one stopped.
func settle(ctx context.Context, w io.Writer, rpc string, gen *chain.Settlement, index int, strategy game.Strategy, commit bool) error {
	acct, dep := gen.Accounts[index], gen.Deposits[index]
	fmt.Fprintf(w, "organization %d: address %s, ring equilibrium d=%.4f f=%.2f GHz\n",
		index, acct.Address(), strategy.D, strategy.F/1e9)

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
	if err := send(chain.FnDepositSubmit, nil, dep); err != nil && !chain.IsAlready(err) {
		return fmt.Errorf("deposit: %w", err)
	}
	fmt.Fprintf(w, "deposited %v tokens\n", chain.FromWei(dep))

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
		if err := send(chain.FnContributionCommit, ca, 0); err != nil && !chain.IsAlready(err) {
			return fmt.Errorf("commit: %w", err)
		}
		fmt.Fprintln(w, "contribution committed")
		// Reveal is rejected until the last commitment lands; retry on the
		// poll cadence.
		for {
			err := send(chain.FnContributionReveal, chain.RevealArgs{Contribution: contrib, Salt: salt}, 0)
			if err == nil || chain.IsAlready(err) {
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
		fmt.Fprintln(w, "contribution revealed")
	} else {
		if err := send(chain.FnContributionSubmit, contrib, 0); err != nil && !chain.IsAlready(err) {
			return fmt.Errorf("submit: %w", err)
		}
		fmt.Fprintln(w, "contribution submitted")
	}

	// Phase 3: calculate (idempotent; any member may win the race),
	// transfer, record.
	if err := waitFor("submissions", func(st chain.ContractStatus) bool {
		return st.Submitted == st.Members
	}); err != nil {
		return err
	}
	if err := send(chain.FnPayoffCalculate, nil, 0); err != nil && !chain.IsAlready(err) {
		return fmt.Errorf("calculate: %w", err)
	}
	before, err := client.Balance(acct.Address())
	if err != nil {
		return err
	}
	if err := send(chain.FnPayoffTransfer, nil, 0); err != nil && !chain.IsAlready(err) {
		return fmt.Errorf("transfer: %w", err)
	}
	if err := send(chain.FnProfileRecord, nil, 0); err != nil && !chain.IsAlready(err) {
		return fmt.Errorf("record: %w", err)
	}
	after, err := client.Balance(acct.Address())
	if err != nil {
		return err
	}
	if err := client.VerifyChain(); err != nil {
		return fmt.Errorf("chain verification: %w", err)
	}
	fmt.Fprintf(w, "settled: received %v tokens (deposit %v + redistribution %+v)\n",
		chain.FromWei(after-before), chain.FromWei(dep), chain.FromWei(after-before-dep))
	return nil
}
