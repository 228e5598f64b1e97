// Command tradefl-chain runs a TradeFL private-chain node: it deploys the
// settlement contract for a Table II instance and serves the Web3-style
// JSON-RPC interface organizations use to deposit, submit contributions and
// settle (Sec. III-F of the paper).
//
// Usage:
//
//	tradefl-chain -listen 127.0.0.1:8545 -seed 7
//	tradefl-chain -wal-dir data/                               durable node
//	tradefl-chain -wal-dir data/ -recover 42                   PITR view at height 42
//	tradefl-chain -wal-dir p/ -replicate 127.0.0.1:9000        primary, streaming to standby
//	tradefl-chain -wal-dir s/ -standby 127.0.0.1:9000          standby, promotes after 2s of silence
//
// The node deploys chain.NewSettlement of the seed's game, prints each
// member's address and funds it at genesis with twice its deposit; an
// organization process derives the same settlement from the same seed
// (tradefl-org -seed). With -wal-dir every accepted
// transaction and sealed block is fsynced to a write-ahead log before it is
// acknowledged, and an existing directory is recovered (the log replayed
// and verified from genesis) instead of starting fresh; a directory written
// under another -seed is refused. SIGINT/SIGTERM shuts
// down gracefully, in standby as in service: the RPC listener closes, the
// pending block is sealed, and the WAL is flushed and closed.
package main

import (
	"context"
	"flag"
	"fmt"

	"tradefl/internal/chain"
	"tradefl/internal/cli"
	"tradefl/internal/game"
	"tradefl/internal/obs"
	"tradefl/internal/transport"
)

func main() { cli.Main("tradefl-chain", run) }

func run(args []string) error { return command().Exec(args) }

// command is tradefl-chain's flags and body.
func command() cli.Command {
	fs := flag.NewFlagSet("tradefl-chain", flag.ContinueOnError)
	var (
		listen   = fs.String("listen", "127.0.0.1:8545", "RPC listen address")
		seed     = fs.Int64("seed", 7, "seed of the game instance and accounts")
		walDir   = fs.String("wal-dir", "", "durable mode: write-ahead log in this directory (an existing chain is recovered and replay-verified)")
		recoverH = fs.Uint64("recover", 0, "with -wal-dir: point-in-time recovery — serve a view of the chain as of this sealed height; writes to the view are NOT durable")
		repl     = fs.String("replicate", "", "with -wal-dir: stream every durable WAL record to the standby listening at this address")
		standby  = fs.String("standby", "", "run as a standby validator: tail the primary's WAL stream on this listen address and take over sealing when it has been silent for 2s")
	)
	return cli.Command{Flags: fs, Verify: true, Run: func(ctx context.Context, _ *obs.DiagServer) error {
		cfg, err := game.DefaultConfig(game.GenOptions{Seed: *seed})
		if err != nil {
			return err
		}
		gen, err := chain.NewSettlement(cfg, *seed)
		if err != nil {
			return err
		}
		if (*recoverH > 0 || *repl != "") && *walDir == "" {
			return fmt.Errorf("-recover and -replicate require -wal-dir")
		}
		if *standby != "" && *repl != "" {
			return fmt.Errorf("-standby and -replicate are mutually exclusive")
		}

		var bc *chain.Blockchain
		switch {
		case *recoverH > 0:
			// Point-in-time view: rebuilt from the log up to the
			// requested height, replay-verified, detached from the WAL.
			bc, err = chain.RecoverAt(*walDir, gen.Authority, *recoverH)
			if err != nil {
				return fmt.Errorf("point-in-time recovery: %w", err)
			}
			fmt.Printf("tradefl-chain: point-in-time view of %s at height %d (state root %s); writes are NOT durable\n",
				*walDir, bc.Height(), bc.StateRoot())
		case *walDir != "":
			// OpenDurable initializes a fresh durable chain or recovers an
			// existing one to its last acknowledged state.
			bc, err = chain.OpenDurable(*walDir, gen.Authority, gen.Params, gen.Alloc)
			if err != nil {
				return err
			}
			fmt.Printf("tradefl-chain: durable chain in %s (height %d, term %d)\n", *walDir, bc.Height(), bc.Term())
		default:
			bc, err = chain.NewBlockchain(gen.Authority, gen.Params, gen.Alloc)
			if err != nil {
				return err
			}
		}
		// shutdown is the graceful exit path once RPC has stopped: seal the
		// pending block so nothing acknowledged is left in the mempool file
		// forever, then flush and close the WAL (durable mode).
		shutdown := func() error {
			if bc.WAL() == nil {
				return nil
			}
			if bc.PendingCount() > 0 {
				if _, serr := bc.SealBlock(); serr != nil {
					return fmt.Errorf("seal pending block: %w", serr)
				}
			}
			return bc.CloseDurable()
		}

		if *standby != "" {
			// Standby mode: no RPC service yet — tail the primary's WAL stream
			// and only start serving (below) after promotion. A signal while
			// still a follower is a clean exit; one during promotion cancels
			// the same ctx, so the serve loop below shuts down gracefully.
			node, terr := transport.NewTCPNode("standby", *standby, 256)
			if terr != nil {
				return terr
			}
			defer node.Close()
			sb := chain.NewStandby(bc, node)
			fmt.Println("tradefl-chain: standby tailing WAL stream on", node.Addr())
			promoted, serr := sb.Run(ctx)
			switch {
			case promoted:
				fmt.Printf("tradefl-chain: promoted to primary (term %d, height %d)\n", bc.Term(), bc.Height())
			case ctx.Err() != nil:
				fmt.Println("tradefl-chain: standby shutting down")
				return shutdown()
			case serr != nil:
				return serr
			default:
				fmt.Println("tradefl-chain: replication stream closed")
				return shutdown()
			}
		}

		if *repl != "" {
			// Primary side of failover: forward every durable record to the
			// standby. Installed before the server starts taking traffic.
			node, terr := transport.NewTCPNode("primary", "127.0.0.1:0", 256)
			if terr != nil {
				return terr
			}
			defer node.Close()
			node.RegisterPeer("standby", *repl)
			if _, rerr := chain.NewReplicator(bc, node, "standby"); rerr != nil {
				return rerr
			}
			fmt.Println("tradefl-chain: replicating WAL records to", *repl)
		}
		srv, err := chain.NewServer(bc, *listen)
		if err != nil {
			return err
		}
		fmt.Println("tradefl-chain: RPC on", srv.Addr())
		fmt.Println("authority:", gen.Authority.Address())
		for i, m := range gen.Params.Members {
			fmt.Printf("member %d: %s (funded %d wei)\n", i, m, gen.Alloc[m])
		}

		done := make(chan error, 1)
		go func() { done <- srv.Serve() }()
		select {
		case err := <-done:
			return err
		case <-ctx.Done():
			// Graceful order: stop accepting RPCs first, then seal/flush so the
			// final durable state includes everything that was acknowledged.
			fmt.Println("tradefl-chain: shutting down")
			if err := srv.Close(); err != nil {
				return err
			}
			if err := <-done; err != nil {
				return err
			}
			return shutdown()
		}
	}}
}
