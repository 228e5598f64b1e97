// Distributed pipeline: the full TradeFL deployment story in one program —
// organizations negotiate the equilibrium over real TCP sockets (Algorithm
// 2, no central parameter server), then settle the payoff redistribution
// through the smart contract on a chain node reached over JSON-RPC, exactly
// the Fig. 3 lifecycle: depositSubmit → contributionSubmit →
// payoffCalculate → payoffTransfer → profileRecord.
package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"tradefl"
	"tradefl/internal/chain"
	"tradefl/internal/dbr"
	"tradefl/internal/game"
	"tradefl/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "distributed:", err)
		os.Exit(1)
	}
}

func run() error {
	const seed = 7
	cfg, err := tradefl.DefaultConfig(tradefl.GenOptions{Seed: seed, N: 6})
	if err != nil {
		return err
	}
	n := cfg.N()

	// --- Phase 1: negotiate the equilibrium over TCP ---------------------
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
		if nodes[i], err = dbr.NewNode(cfg, i, tcp[i], names, dbr.Options{}); err != nil {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	profiles := make([]game.Profile, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			profiles[i], errs[i] = nodes[i].Run(ctx)
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
	profile := profiles[0]
	fmt.Printf("phase 1: %d organizations agreed on the equilibrium over TCP (welfare %.1f)\n",
		n, cfg.SocialWelfare(profile))

	// --- Phase 2: settle on the chain over JSON-RPC ----------------------
	gen, err := chain.NewSettlement(cfg, seed)
	if err != nil {
		return err
	}
	stages, err := gen.Stages(profile)
	if err != nil {
		return err
	}
	bc, err := chain.NewBlockchain(gen.Authority, gen.Params, gen.Alloc)
	if err != nil {
		return err
	}
	srv, err := chain.NewServer(bc, "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	defer func() {
		_ = srv.Close()
		<-serveDone
	}()
	client := chain.NewClient(srv.Addr())
	fmt.Println("phase 2: chain node serving RPC at", srv.Addr())

	// Each Fig. 3 stage is one batch and one sealed block; the payoffs are
	// read once calculated, before the transfers pay them out.
	var payoffs []chain.Wei
	for k, name := range [4]string{"deposit", "contribution", "calculate", "transfer+record"} {
		results, err := client.SubmitTxBatch(stages[k])
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for _, r := range results {
			if !r.OK {
				return fmt.Errorf("%s: %s", name, r.Error)
			}
		}
		blk, err := client.SealBlock()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for _, r := range blk.Receipts {
			if !r.OK {
				return fmt.Errorf("%s: %s", name, r.Error)
			}
		}
		if name == "calculate" {
			if payoffs, err = client.Payoffs(); err != nil {
				return err
			}
		}
	}
	if err := client.VerifyChain(); err != nil {
		return fmt.Errorf("chain verification: %w", err)
	}
	records, err := client.Records()
	if err != nil {
		return err
	}
	status, err := client.Status()
	if err != nil {
		return err
	}

	fmt.Println("settlement executed on-chain:")
	for i := range payoffs {
		fmt.Printf("  %s: d=%.3f, transfer %+.3f tokens\n",
			cfg.Orgs[i].Name, profile[i].D, chain.FromWei(payoffs[i]))
	}
	fmt.Printf("contract status: %+v\n", status)
	fmt.Printf("%d immutable profile records; chain verified\n", len(records))
	return nil
}
