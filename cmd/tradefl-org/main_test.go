package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"tradefl/internal/chain"
	"tradefl/internal/dbr"
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
		"commit", "diag-addr", "index", "listen", "local", "log-format", "log-level",
		"peers", "rpc", "seed", "trace-out",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags = %v\nwant    %v", got, want)
	}
}

// TestIncrementalFlagIsGone: the switch of the solvers' old second
// evaluation path, every setting that had one value in use (now a
// constant), and -d/-f (the ring decides the contribution) are unknown
// flags.
func TestIncrementalFlagIsGone(t *testing.T) {
	for _, name := range []string{
		"incremental", "poll", "timeout", "rpc-timeout", "rpc-retries",
		"recovery", "suspect-after", "send-retries", "send-backoff", "d", "f",
	} {
		c := command()
		c.Flags.SetOutput(io.Discard)
		err := c.Exec([]string{"-" + name, "1"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -"+name) {
			t.Errorf("-%s 1: err = %v, want an unknown-flag error", name, err)
		}
	}
}

// TestModeFlagsRejected: conflicting or malformed mode flags fail before
// any network I/O (nothing listens on the addresses given).
func TestModeFlagsRejected(t *testing.T) {
	ten := strings.TrimSuffix(strings.Repeat("127.0.0.1:1,", 10), ",")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "give -index and -peers"},
		{[]string{"-index", "0"}, "give -index and -peers"},
		{[]string{"-local", "-peers", ten}, "-peers does not apply"},
		{[]string{"-local", "-index", "0"}, "-index does not apply"},
		{[]string{"-local", "-rpc", "127.0.0.1:1"}, "-rpc does not apply"},
		{[]string{"-local", "-listen", "127.0.0.1:1"}, "-listen does not apply"},
		{[]string{"-index", "0", "-peers", "127.0.0.1:1,127.0.0.1:2"}, "-peers has 2 entries, want 10"},
		{[]string{"-index", "10", "-peers", ten}, "-index 10 out of range"},
		{[]string{"-peers", ten}, "-index -1 out of range"},
	} {
		if err := run(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %q: err = %v, want %q", tc.args, err, tc.want)
		}
	}
}

// solved is seed's game, its settlement and the central DBR profile the
// ring must reproduce bit for bit.
func solved(t *testing.T, seed int64) (*game.Config, *chain.Settlement, game.Profile) {
	t.Helper()
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := chain.NewSettlement(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := dbr.Solve(cfg, nil, dbr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return cfg, gen, ref.Profile
}

// checkSettled requires the contract on bc to be settled with every
// member's recorded contribution equal to want's strategy bit for bit, and
// the transfers to sum to 0 wei.
func checkSettled(t *testing.T, bc *chain.Blockchain, gen *chain.Settlement, want game.Profile) {
	t.Helper()
	if err := bc.ContractView(func(c *chain.Contract) error {
		if !c.Settled {
			t.Error("contract not settled")
		}
		for i, m := range gen.Params.Members {
			got := c.MemberData[m].Contribution
			if got.D != want[i].D || got.F != want[i].F {
				t.Errorf("organization %d recorded %+v, want dbr.Solve's %+v", i, got, want[i])
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var sum chain.Wei
	for _, m := range gen.Params.Members {
		sum += bc.Balance(m) - gen.Alloc[m]
	}
	if sum != 0 {
		t.Errorf("transfers sum to %d wei, want 0", sum)
	}
}

// TestOrgsSettleAgainstNode runs -local on seed 7, with direct and with
// commit-reveal reporting: every organization's ring-decided contribution
// lands on the chain node tradefl-chain builds for that seed. The command
// line `tradefl-org -local -commit` takes the same path and succeeds.
func TestOrgsSettleAgainstNode(t *testing.T) {
	const seed = 7
	cfg, gen, want := solved(t, seed)
	for _, commit := range []bool{false, true} {
		var out bytes.Buffer
		bc, err := runLocal(context.Background(), &out, cfg, gen, commit)
		if err != nil {
			t.Fatalf("commit=%v: %v", commit, err)
		}
		checkSettled(t, bc, gen, want)
		for _, line := range []string{"Settled:true", "chain verified"} {
			if !strings.Contains(out.String(), line) {
				t.Errorf("commit=%v: output lacks %q:\n%s", commit, line, out.String())
			}
		}
	}
	if err := run([]string{"-local", "-commit", "-log-level", "error"}); err != nil {
		t.Errorf("run -local -commit: %v", err)
	}
}

// TestLatePeerSettles runs one organization per run call, as separate
// processes would, with the last one binding its ring address 2.5 s after
// the rest. Organization 0 must wait for it rather than skip it, so the
// settled profile is still the central equilibrium.
func TestLatePeerSettles(t *testing.T) {
	const seed = 7
	cfg, gen, want := solved(t, seed)
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
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		if err := errors.Join(srv.Close(), <-served); err != nil {
			t.Errorf("server: %v", err)
		}
	}()

	// Reserve one free loopback port per organization.
	addrs := make([]string, cfg.N())
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	peers := strings.Join(addrs, ",")
	late := cfg.N() - 1
	done := make(chan error, cfg.N())
	for i := range addrs {
		go func() {
			if i == late {
				time.Sleep(2500 * time.Millisecond)
			}
			done <- run([]string{"-index", strconv.Itoa(i), "-peers", peers, "-rpc", srv.Addr(), "-seed", strconv.Itoa(seed)})
		}()
	}
	for range addrs {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
	checkSettled(t, bc, gen, want)
}

// TestCommitRevealRerunSettles stops organization 0's commit-reveal walk
// right after its commitment lands, as a SIGINT would, and walks it again.
// The re-run must reveal with the salt it committed with, or its reveal
// fails and every other organization waits for it until its deadline.
func TestCommitRevealRerunSettles(t *testing.T) {
	const seed = 7
	cfg, gen, want := solved(t, seed)
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
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		if err := errors.Join(srv.Close(), <-served); err != nil {
			t.Errorf("server: %v", err)
		}
	}()

	ctx, cancelAll := context.WithTimeout(context.Background(), time.Minute)
	defer cancelAll()
	done := make(chan error, cfg.N())
	for i := 1; i < cfg.N(); i++ {
		go func() { done <- gen.Walk(ctx, chain.NewClient(srv.Addr()), i, want[i], true, io.Discard) }()
	}
	stopped, stop := context.WithCancel(ctx)
	err = gen.Walk(stopped, chain.NewClient(srv.Addr()), 0, want[0], true, cancelOn{"contribution committed", stop})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("stopped walk: err = %v, want context.Canceled", err)
	}
	if err := gen.Walk(ctx, chain.NewClient(srv.Addr()), 0, want[0], true, io.Discard); err != nil {
		t.Errorf("re-run: %v", err)
		cancelAll()
	}
	for i := 1; i < cfg.N(); i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
	checkSettled(t, bc, gen, want)
}

// cancelOn calls cancel when a write contains text.
type cancelOn struct {
	text   string
	cancel context.CancelFunc
}

func (c cancelOn) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(c.text)) {
		c.cancel()
	}
	return len(p), nil
}
