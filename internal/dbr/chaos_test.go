package dbr

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"tradefl/internal/faults"
	"tradefl/internal/game"
	"tradefl/internal/transport"
)

// runFaultyRing runs the full token ring with every endpoint wrapped in the
// given fault injector and returns the agreed profile.
func runFaultyRing(t *testing.T, cfg *game.Config, opts Options, inj *faults.Injector) game.Profile {
	t.Helper()
	hub := transport.NewHub()
	trs := make([]transport.Transport, cfg.N())
	for i, name := range PeerNames(cfg.N()) {
		ep, err := hub.Endpoint(name, cfg.N()+2)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		trs[i] = inj.Wrap(ep)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	profile, err := RunRing(ctx, cfg, trs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return profile
}

// TestRingConvergesUnderMessageLoss drops a quarter of all token traffic
// and adds random delay and duplication; timeout-driven resends to the
// same peer (SuspectAfter) must recover every lost hop, so the ring lands
// on exactly the fault-free equilibrium instead of freezing strategies.
func TestRingConvergesUnderMessageLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: 21, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(faults.Plan{
		Seed:      7,
		Drop:      0.25,
		Dup:       0.05,
		DelayProb: 0.2,
		DelayMin:  time.Millisecond,
		DelayMax:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inj.Close()
	opts := Options{
		TokenTimeout: 150 * time.Millisecond,
		// 8 same-peer retries before a crash suspicion: a spurious skip
		// would need 9 consecutive drops (0.25^9 ≈ 4e-6), so the chaos run
		// deterministically reaches the loss-free fixed point.
		SuspectAfter: 8,
	}
	chaotic := runFaultyRing(t, cfg, opts, inj)

	local, err := Solve(cfg, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if du := math.Abs(cfg.Potential(chaotic) - cfg.Potential(local.Profile)); du > 1e-6 {
		t.Errorf("potential gap between chaotic ring and fault-free solve: %v", du)
	}
	for i := range chaotic {
		if chaotic[i] != local.Profile[i] {
			t.Errorf("org %d: chaotic %+v != fault-free %+v", i, chaotic[i], local.Profile[i])
		}
	}
	if rep := cfg.CheckNash(chaotic, 60, 1e-2); !rep.IsNash {
		t.Errorf("chaotic result not Nash: %v", rep)
	}
	c := inj.Counts()
	if c.Dropped == 0 {
		t.Error("fault injector dropped nothing; the soak exercised no faults")
	}
	t.Logf("faults injected: %+v", c)
}

// TestRingSkipsPeerAfterSuspectBudget partitions one victim from every
// other node (sends to it succeed at the transport level but never arrive)
// and checks the ring still terminates: after SuspectAfter resends the
// victim is skipped with its strategy frozen.
func TestRingSkipsPeerAfterSuspectBudget(t *testing.T) {
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: 9, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	const victim = 1
	var parts []faults.Partition
	for i := 0; i < cfg.N(); i++ {
		if i != victim {
			parts = append(parts, faults.Partition{From: fmt.Sprintf("org-%d", i), To: fmt.Sprintf("org-%d", victim)})
		}
	}
	inj, err := faults.NewInjector(faults.Plan{Seed: 3, Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	defer inj.Close()

	hub := transport.NewHub()
	peers := make([]string, cfg.N())
	for i := range peers {
		peers[i] = fmt.Sprintf("org-%d", i)
	}
	nodes := make([]*Node, cfg.N())
	trs := make([]transport.Transport, cfg.N())
	for i := 0; i < cfg.N(); i++ {
		ep, err := hub.Endpoint(peers[i], cfg.N()+2)
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = ep
		node, err := NewNode(cfg, i, inj.Wrap(ep), peers, Options{
			TokenTimeout: 100 * time.Millisecond,
			SuspectAfter: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	defer func() {
		for _, tr := range trs {
			_ = tr.Close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	results := make([]game.Profile, cfg.N())
	errs := make([]error, cfg.N())
	var wg sync.WaitGroup
	for i := range nodes {
		if i == victim {
			continue // partitioned off; it would only wait for ctx
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
		if i != victim && err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	init := cfg.MinimalProfile()
	for i, r := range results {
		if i == victim || r == nil {
			continue
		}
		if r[victim] != init[victim] {
			t.Errorf("node %d: partitioned org's strategy moved: %+v", i, r[victim])
		}
	}
}
