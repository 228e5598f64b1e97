package dbr

import (
	"context"
	"reflect"
	"testing"
	"time"

	"tradefl/internal/game"
	"tradefl/internal/transport"
)

func TestSolveDistributedMatchesLocal(t *testing.T) {
	cfg := defaultGame(t, 7)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dist, err := SolveDistributed(ctx, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	local, err := Solve(cfg, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The ring and the serial solver make the same moves from the same
	// start, so they agree bit for bit.
	if !reflect.DeepEqual(dist, local.Profile) {
		t.Errorf("distributed profile %v\nwant dbr.Solve's  %v", dist, local.Profile)
	}
}

func TestSolveDistributedSmallGame(t *testing.T) {
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: 5, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	p, err := SolveDistributed(ctx, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.ValidProfile(p); err != nil {
		t.Errorf("invalid distributed profile: %v", err)
	}
}

func TestSolveDistributedContextCancel(t *testing.T) {
	cfg := defaultGame(t, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveDistributed(ctx, cfg, Options{}); err == nil {
		t.Error("cancelled context should fail")
	}
}

func TestSolveDistributedInvalidConfig(t *testing.T) {
	cfg := defaultGame(t, 7)
	cfg.Accuracy = nil
	if _, err := SolveDistributed(context.Background(), cfg, Options{}); err == nil {
		t.Error("accepted invalid config")
	}
}

func TestNodeValidation(t *testing.T) {
	cfg := defaultGame(t, 7)
	hub := transport.NewHub()
	tr, err := hub.Endpoint("x", 1)
	if err != nil {
		t.Fatal(err)
	}
	peers := make([]string, cfg.N())
	if _, err := NewNode(cfg, -1, tr, peers, Options{}); err == nil {
		t.Error("accepted negative index")
	}
	if _, err := NewNode(cfg, 0, tr, peers[:2], Options{}); err == nil {
		t.Error("accepted wrong peer count")
	}
	bad := *cfg
	bad.Accuracy = nil
	if _, err := NewNode(&bad, 0, tr, peers, Options{}); err == nil {
		t.Error("accepted invalid config")
	}
}

// TestDistributedOverTCP runs the full protocol across real TCP sockets,
// one node per organization, the deployment mode of cmd/tradefl-org.
func TestDistributedOverTCP(t *testing.T) {
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: 9, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := transport.LoopbackMesh(PeerNames(cfg.N()), 16)
	if err != nil {
		t.Fatal(err)
	}
	trs := make([]transport.Transport, len(tcp))
	for i, node := range tcp {
		defer node.Close()
		trs[i] = node
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ring, err := RunRing(ctx, cfg, trs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	local, err := Solve(cfg, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ring, local.Profile) {
		t.Errorf("TCP ring profile %v\nwant dbr.Solve's %v", ring, local.Profile)
	}
}
