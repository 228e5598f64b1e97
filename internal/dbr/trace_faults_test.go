package dbr

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"tradefl/internal/faults"
	"tradefl/internal/game"
	"tradefl/internal/obs"
	"tradefl/internal/transport"
)

// TestTracePropagatesThroughFaultyRing runs the token ring under drop,
// duplication and delay injection with tracing enabled, starting the token
// from a traced context, and asserts the observability invariants the
// faults fabric must not break:
//
//   - every hop span carries the originating trace ID (continuation across
//     endpoints survives lost and resent frames),
//   - duplicated frames never double-close a span (Seq dedup runs before
//     the hop span opens), and
//   - no span leaks: everything started during the run is ended.
func TestTracePropagatesThroughFaultyRing(t *testing.T) {
	obs.EnableTracing(true)
	obs.SeedIDs(1701)
	obs.ResetTraces()
	defer func() {
		obs.EnableTracing(false)
		obs.ResetTraces()
	}()

	cfg, err := game.DefaultConfig(game.GenOptions{Seed: 5, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(faults.Plan{
		Seed:      1701,
		Drop:      0.15,
		Dup:       0.15,
		DelayProb: 0.1,
		DelayMin:  time.Millisecond,
		DelayMax:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inj.Close()

	hub := transport.NewHub()
	n := cfg.N()
	peers := make([]string, n)
	for i := range peers {
		peers[i] = fmt.Sprintf("org-%d", i)
	}
	nodes := make([]*Node, n)
	trs := make([]transport.Transport, n)
	for i := 0; i < n; i++ {
		ep, err := hub.Endpoint(peers[i], n+2)
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = ep
		node, err := NewNode(cfg, i, inj.Wrap(ep), peers, Options{
			TokenTimeout: 150 * time.Millisecond,
			SuspectAfter: 8,
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

	started0, ended0, dbl0 := obs.SpanStats()

	rootCtx, root := obs.Span(context.Background(), "ringtest.run")
	rootTC, ok := obs.TraceFromContext(rootCtx)
	if !ok {
		t.Fatal("traced context lost its trace")
	}

	ctx, cancel := context.WithTimeout(rootCtx, 60*time.Second)
	defer cancel()
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
	if err := nodes[0].Start(rootCtx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	root.End()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}

	// The injector's delayed-delivery goroutines all target transports of
	// this ring; Close waits for them so no span can start after the count.
	inj.Close()
	started1, ended1, dbl1 := obs.SpanStats()

	if dbl1 != dbl0 {
		t.Errorf("duplicated frames double-closed %d span(s)", dbl1-dbl0)
	}
	if started1-started0 != ended1-ended0 {
		t.Errorf("span leak under faults: %d started vs %d ended",
			started1-started0, ended1-ended0)
	}

	// Hop spans are remote continuations: each is retained as a root under
	// the ORIGINATING trace ID. Count them, and require that no hop landed
	// under a foreign trace.
	hops := 0
	for _, line := range obs.TraceTopology() {
		switch line {
		case "ring.hop " + rootTC.TraceID:
			hops++
		default:
			if len(line) > 9 && line[:9] == "ring.hop " {
				t.Errorf("hop span escaped to a foreign trace: %s", line)
			}
		}
	}
	if hops == 0 {
		t.Error("no ring.hop roots recorded under the originating trace")
	}
	if c := inj.Counts(); c.Dropped == 0 || c.Duplicated == 0 {
		t.Logf("warning: fault mix did not exercise both drop and dup (counts %+v)", c)
	}
}
