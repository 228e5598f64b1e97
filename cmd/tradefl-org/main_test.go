package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tradefl/internal/chain"
	"tradefl/internal/game"
)

// TestFlagSet pins tradefl-org's flags: its own and the shared
// observability ones. -h returns flag.ErrHelp, which cli.Main exits 0 on.
func TestFlagSet(t *testing.T) {
	c := command()
	c.Flags.SetOutput(io.Discard)
	if err := c.Exec([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	var got []string
	c.Flags.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{
		"commit", "d", "diag-addr", "f", "index", "log-format", "log-level", "rpc",
		"seed", "trace-out", "verify",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags = %v\nwant    %v", got, want)
	}
}

// TestIncrementalFlagIsGone: the switch of the solvers' old second
// evaluation path, and every setting that had one value in use (now a
// constant), are unknown flags.
func TestIncrementalFlagIsGone(t *testing.T) {
	for _, name := range []string{
		"incremental", "poll", "timeout", "rpc-timeout", "rpc-retries",
	} {
		c := command()
		c.Flags.SetOutput(io.Discard)
		err := c.Exec([]string{"-" + name, "1"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -"+name) {
			t.Errorf("-%s 1: err = %v, want an unknown-flag error", name, err)
		}
	}
}

// TestContributionNeedsBothFlags: -d without -f (or the reverse) would
// silently fall back to solving DBR, so it is rejected before any RPC.
func TestContributionNeedsBothFlags(t *testing.T) {
	for _, args := range [][]string{{"-d", "0.4"}, {"-f", "4e9"}} {
		err := run(append(args, "-rpc", "127.0.0.1:1", "-index", "0"))
		if err == nil || !strings.Contains(err.Error(), "give both or neither") {
			t.Errorf("run %v: err = %v, want the both-or-neither error", args, err)
		}
	}
}

// TestOrgsSettleAgainstNode runs every organization of a seed's game
// against the node tradefl-chain builds for that seed (chain.NewSettlement
// over DefaultConfig), concurrently, each solving its own DBR strategy. Every
// lifecycle must finish, the contract must settle, and the transfers must
// sum to 0 wei.
func TestOrgsSettleAgainstNode(t *testing.T) {
	const seed = 7
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := chain.NewSettlement(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := chain.NewBlockchain(gen.Authority, gen.Params, gen.Alloc)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := chain.NewServer(bc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	defer func() {
		// A pooled connection the clients dialled but never used would hold
		// the server's graceful Close for its whole 5 s deadline.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		if err := errors.Join(srv.Close(), <-served); err != nil {
			t.Errorf("server: %v", err)
		}
	}()

	errs := make([]error, cfg.N())
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = settle(context.Background(), srv.Addr(), seed, i, game.Strategy{D: -1, F: -1}, false)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("organization %d: %v", i, err)
		}
	}
	var settled bool
	if err := bc.ContractView(func(c *chain.Contract) error {
		settled = c.Settled
		return nil
	}); err != nil || !settled {
		t.Errorf("contract settled = %v (err %v), want true", settled, err)
	}
	var sum chain.Wei
	for _, m := range gen.Params.Members {
		sum += bc.Balance(m) - gen.Alloc[m]
	}
	if sum != 0 {
		t.Errorf("transfers sum to %d wei, want 0", sum)
	}
}
