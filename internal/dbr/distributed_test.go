package dbr

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
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

// TestRingProfileGolden pins the profiles the token ring agrees on for
// N = 3…8 × seeds 1–8, one SHA-256 per N over the eight profiles' float64
// bits. A node's turn is Bind → BestResponse → current on the engine it
// built once; the hashes were recorded when a turn still walked
// Config.Payoff for its current payoff and scanned on a pooled engine, and
// N = 3…6 re-recorded when best responses moved to the first-order
// condition (N = 7, 8 kept their bits).
func TestRingProfileGolden(t *testing.T) {
	want := map[int]string{
		3: "612c24fcc586d9eb3e3ec6a5944766b1600904211060e8ae2579eeef8f12fa84",
		4: "e1e3ded7fbafdef04ba33d533a9822795db069a1dea4582d8147c533bdd893d4",
		5: "db690fd49f6e9e0b751c70a4a4a3687d6b0873d62c1f5cda011389e59c22961e",
		6: "e1cfb26391ac1fc294f653c8b36bd4c1e9304c91cbf7513fe868cfca68eab6e4",
		7: "47f7750e202246983c28093801c3341e0adee983db90c9e199b3c7490d5651b4",
		8: "8dda150e56c5c15305d00c98d155f4279fda0ac8cdd1a2d4554b948a187ec11e",
	}
	for n := 3; n <= 8; n++ {
		h := sha256.New()
		for seed := int64(1); seed <= 8; seed++ {
			cfg, err := game.DefaultConfig(game.GenOptions{Seed: seed, N: n})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			p, err := SolveDistributed(ctx, cfg, Options{})
			cancel()
			if err != nil {
				t.Fatalf("N=%d seed %d: %v", n, seed, err)
			}
			for _, s := range p {
				var b [16]byte
				binary.LittleEndian.PutUint64(b[:8], math.Float64bits(s.D))
				binary.LittleEndian.PutUint64(b[8:], math.Float64bits(s.F))
				h.Write(b[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[n] {
			t.Errorf("N=%d: ring profiles hash %s, want %s", n, got, want[n])
		}
	}
}
