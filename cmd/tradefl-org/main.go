// Command tradefl-org is one organization of a TradeFL deployment. It
// best-responds in the DBR token ring (Algorithm 2) over TCP with its
// peers, with no central server, and then walks the Fig. 3 lifecycle for
// its own account on a tradefl-chain node over JSON-RPC — depositSubmit →
// contributionSubmit → payoffCalculate → payoffTransfer → profileRecord,
// chain.Settlement.Walk — reporting the strategy the ring decided, so every
// organization settles concurrently. SIGINT/SIGTERM stops the walk between
// polls; a re-run resumes it.
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
	return cli.Command{Flags: fs, Run: func(ctx context.Context, _ *obs.DiagServer) error {
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
// peers are registered, then its Fig. 3 walk against rpc with the strategy
// the ring decided. Organization 0 injects the token only once
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
	st := profile[index]
	fmt.Fprintf(w, "organization %d: address %s, ring equilibrium d=%.4f f=%.2f GHz\n",
		index, gen.Accounts[index].Address(), st.D, st.F/1e9)
	settleCtx, cancelSettle := context.WithTimeout(ctx, settleTimeout)
	defer cancelSettle()
	return gen.Walk(settleCtx, chain.NewClient(rpc), index, st, commit, w)
}
