// Command tradefl-node runs one organization of the distributed DBR
// protocol (Algorithm 2) over TCP — no central parameter server, as the
// paper prescribes. Every node derives the public game instance from the
// shared seed; each decides only its own strategy.
//
// Single-process demo (spawns all N nodes over loopback TCP):
//
//	tradefl-node -local -seed 7
//
// Multi-process deployment (run one per organization):
//
//	tradefl-node -index 0 -listen :7000 -peers ":7000,:7001,...,:7009" -seed 7
//
// Node 0 injects the initial token once its peers are reachable.
package main

import (
	"context"
	"flag"
	"fmt"
	"strings"
	"sync"
	"time"

	"tradefl/internal/cli"
	"tradefl/internal/dbr"
	"tradefl/internal/game"
	"tradefl/internal/obs"
	"tradefl/internal/transport"
)

const (
	// protocolTimeout bounds the whole protocol run.
	protocolTimeout = 2 * time.Minute
	// tokenTimeout arms the ring's token-timeout crash recovery.
	tokenTimeout = 10 * time.Second
)

func main() { cli.Main("tradefl-node", run) }

func run(args []string) error { return command().Exec(args) }

// command is tradefl-node's flags and body.
func command() cli.Command {
	fs := flag.NewFlagSet("tradefl-node", flag.ContinueOnError)
	local := fs.Bool("local", false, "run all organizations in one process over loopback TCP")
	index := fs.Int("index", -1, "this organization's index (multi-process mode)")
	listen := fs.String("listen", "", "TCP listen address (multi-process mode)")
	peers := fs.String("peers", "", "comma-separated peer addresses, indexed by organization")
	seed := fs.Int64("seed", 7, "seed of the shared game instance")
	return cli.Command{Flags: fs, Verify: true, Run: func(ctx context.Context, _ *obs.DiagServer) error {
		cfg, err := game.DefaultConfig(game.GenOptions{Seed: *seed})
		if err != nil {
			return err
		}
		// SIGINT/SIGTERM cancels ctx: node goroutines unwind and the TCP
		// transports close via their defers.
		ctx, cancel := context.WithTimeout(ctx, protocolTimeout)
		defer cancel()
		opts := dbr.Options{TokenTimeout: tokenTimeout}
		if *local {
			return runLocal(ctx, cfg, opts)
		}
		return runMember(ctx, cfg, opts, *index, *listen, *peers)
	}}
}

// runLocal spawns every organization in-process over loopback TCP and
// prints the agreed equilibrium.
func runLocal(ctx context.Context, cfg *game.Config, opts dbr.Options) error {
	n := cfg.N()
	names := make([]string, n)
	tcp := make([]*transport.TCPNode, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("org-%d", i)
		node, err := transport.NewTCPNode(names[i], "127.0.0.1:0", 16)
		if err != nil {
			return err
		}
		tcp[i] = node
		defer tcp[i].Close()
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			tcp[i].RegisterPeer(names[j], tcp[j].Addr())
		}
	}
	nodes := make([]*dbr.Node, n)
	for i := 0; i < n; i++ {
		node, err := dbr.NewNode(cfg, i, tcp[i], names, opts)
		if err != nil {
			return err
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
	if err := nodes[0].Start(); err != nil {
		return err
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
	}
	printEquilibrium(cfg, results[0])
	return nil
}

// runMember runs a single organization against remote peers.
func runMember(ctx context.Context, cfg *game.Config, opts dbr.Options, index int, listen, peerList string) error {
	if index < 0 || index >= cfg.N() {
		return fmt.Errorf("-index %d out of range [0,%d)", index, cfg.N())
	}
	addrs := strings.Split(peerList, ",")
	if len(addrs) != cfg.N() {
		return fmt.Errorf("-peers has %d entries, want %d", len(addrs), cfg.N())
	}
	if listen == "" {
		listen = addrs[index]
	}
	names := make([]string, cfg.N())
	for i := range names {
		names[i] = fmt.Sprintf("org-%d", i)
	}
	tcp, err := transport.NewTCPNode(names[index], listen, 16)
	if err != nil {
		return err
	}
	defer tcp.Close()
	for i, addr := range addrs {
		tcp.RegisterPeer(names[i], strings.TrimSpace(addr))
	}
	node, err := dbr.NewNode(cfg, index, tcp, names, opts)
	if err != nil {
		return err
	}
	if index == 0 {
		// Give peers a moment to come up before injecting the token.
		time.Sleep(2 * time.Second)
		if err := node.Start(); err != nil {
			return err
		}
	}
	profile, err := node.Run(ctx)
	if err != nil {
		return err
	}
	printEquilibrium(cfg, profile)
	return nil
}

func printEquilibrium(cfg *game.Config, p game.Profile) {
	fmt.Println("equilibrium reached:")
	for i, s := range p {
		fmt.Printf("  %s: d=%.4f f=%.2f GHz payoff=%.2f\n",
			cfg.Orgs[i].Name, s.D, s.F/1e9, cfg.Payoff(i, p))
	}
	fmt.Printf("social welfare: %.2f  potential: %.6f  nash: %v\n",
		cfg.SocialWelfare(p), cfg.Potential(p), cfg.CheckNash(p, 50, 1e-2))
}
