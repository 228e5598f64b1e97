package dbr

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"tradefl/internal/game"
	"tradefl/internal/transport"
)

// tcpRing wires n organizations over loopback TCP and returns nodes plus
// their transports.
func tcpRing(t *testing.T, cfg *game.Config, opts Options) ([]*Node, []*transport.TCPNode) {
	t.Helper()
	n := cfg.N()
	names := make([]string, n)
	tcp := make([]*transport.TCPNode, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("org-%d", i)
		node, err := transport.NewTCPNode(names[i], "127.0.0.1:0", 16)
		if err != nil {
			t.Fatal(err)
		}
		tcp[i] = node
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			tcp[i].RegisterPeer(names[j], tcp[j].Addr())
		}
	}
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		node, err := NewNode(cfg, i, tcp[i], names, opts)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	return nodes, tcp
}

// TestRingSurvivesCrashedNode kills one organization before the protocol
// starts; with TokenTimeout recovery the remaining nodes still converge,
// with the dead organization's strategy frozen at the initial profile.
func TestRingSurvivesCrashedNode(t *testing.T) {
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: 9, N: 5})
	if err != nil {
		t.Fatal(err)
	}
	const dead = 2
	nodes, tcp := tcpRing(t, cfg, Options{TokenTimeout: 300 * time.Millisecond})
	defer func() {
		for i, n := range tcp {
			if i != dead {
				_ = n.Close()
			}
		}
	}()
	if err := tcp[dead].Close(); err != nil { // crash before start
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	results := make([]game.Profile, cfg.N())
	errs := make([]error, cfg.N())
	var wg sync.WaitGroup
	for i := range nodes {
		if i == dead {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = nodes[i].Run(ctx)
		}(i)
	}
	if err := nodes[0].Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range errs {
		if i != dead && err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	// Survivors agree.
	var ref game.Profile
	for i, r := range results {
		if i == dead || r == nil {
			continue
		}
		if ref == nil {
			ref = r
			continue
		}
		for k := range r {
			if r[k] != ref[k] {
				t.Fatalf("survivor %d disagrees at org %d", i, k)
			}
		}
	}
	if ref == nil {
		t.Fatal("no survivor produced a result")
	}
	// The dead organization's strategy stayed at the initial profile.
	init := cfg.MinimalProfile()
	if ref[dead] != init[dead] {
		t.Errorf("dead org's strategy moved: %+v", ref[dead])
	}
	// The survivors are mutually best-responding given the frozen entry.
	eng := NewEngine(cfg)
	eng.Bind(ref)
	for i := range cfg.Orgs {
		if i == dead {
			continue
		}
		cur := cfg.Payoff(i, ref)
		next, val, ok := eng.BestResponse(i, 1e-7)
		if ok && val > cur+1e-4 {
			t.Errorf("survivor %d still has a profitable deviation to %+v (+%g)", i, next, val-cur)
		}
	}
}

// TestRingSurvivesMidProtocolCrash kills a node while the ring is live.
func TestRingSurvivesMidProtocolCrash(t *testing.T) {
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: 11, N: 5})
	if err != nil {
		t.Fatal(err)
	}
	const dead = 3
	nodes, tcp := tcpRing(t, cfg, Options{TokenTimeout: 300 * time.Millisecond})
	defer func() {
		for _, n := range tcp {
			_ = n.Close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	nodeCtx, killNode := context.WithCancel(ctx)
	results := make([]game.Profile, cfg.N())
	errs := make([]error, cfg.N())
	var wg sync.WaitGroup
	for i := range nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == dead {
				results[i], errs[i] = nodes[i].Run(nodeCtx)
				return
			}
			results[i], errs[i] = nodes[i].Run(ctx)
		}(i)
	}
	if err := nodes[0].Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Let the ring make progress, then crash the victim abruptly.
	time.Sleep(100 * time.Millisecond)
	killNode()
	_ = tcp[dead].Close()
	wg.Wait()
	for i, err := range errs {
		if i == dead {
			continue
		}
		if err != nil {
			t.Fatalf("survivor %d: %v", i, err)
		}
		if verr := cfg.ValidProfile(results[i]); verr != nil {
			t.Errorf("survivor %d returned invalid profile: %v", i, verr)
		}
	}
}

// TestRecoveryDisabledStalls documents the contract: without TokenTimeout a
// crashed receiver stalls the ring until the context deadline.
func TestRecoveryDisabledStalls(t *testing.T) {
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: 9, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	const dead = 1
	nodes, tcp := tcpRing(t, cfg, Options{}) // no TokenTimeout
	defer func() {
		for i, n := range tcp {
			if i != dead {
				_ = n.Close()
			}
		}
	}()
	if err := tcp[dead].Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := nodes[0].Run(ctx)
		done <- err
	}()
	if err := nodes[0].Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Error("ring should stall (context deadline) without recovery")
	}
}
