package obs

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	withTracing(t, 1)
	ctx, root := Span(context.Background(), "test.root")
	cctx, child := Span(ctx, "test.child")
	_, grand := Span(cctx, "test.grand")
	time.Sleep(time.Millisecond)
	grand.End()
	child.End()
	root.End()

	n := LastRunSpan("test.root")
	if n == nil {
		t.Fatal("root span not published")
	}
	if len(n.Children) != 1 || n.Children[0].Name != "test.child" {
		t.Fatalf("root children = %+v, want one test.child", n.Children)
	}
	c := n.Children[0]
	if len(c.Children) != 1 || c.Children[0].Name != "test.grand" {
		t.Fatalf("child children = %+v, want one test.grand", c.Children)
	}
	// Only the root is published to the store.
	if LastRunSpan("test.child") != nil {
		t.Error("non-root span leaked into the last-run store")
	}
}

func TestSpanDurationsMonotonic(t *testing.T) {
	withTracing(t, 1)
	ctx, root := Span(context.Background(), "test.durations")
	_, child := Span(ctx, "test.durations.child")
	time.Sleep(2 * time.Millisecond)
	child.End()
	root.End()

	n := LastRunSpan("test.durations")
	if n.DurationNanos <= 0 {
		t.Errorf("root duration = %d, want > 0", n.DurationNanos)
	}
	c := n.Children[0]
	if c.DurationNanos <= 0 {
		t.Errorf("child duration = %d, want > 0", c.DurationNanos)
	}
	if c.DurationNanos > n.DurationNanos {
		t.Errorf("child duration %d exceeds parent %d", c.DurationNanos, n.DurationNanos)
	}
	if c.StartUnixNano < n.StartUnixNano {
		t.Errorf("child started %d before parent %d", c.StartUnixNano, n.StartUnixNano)
	}
}

func TestSpanSiblingsFromGoroutines(t *testing.T) {
	withTracing(t, 1)
	ctx, root := Span(context.Background(), "test.parallel")
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			_, s := Span(ctx, "test.parallel.worker")
			s.End()
			done <- struct{}{}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	root.End()
	n := LastRunSpan("test.parallel")
	if len(n.Children) != 4 {
		t.Errorf("got %d children, want 4", len(n.Children))
	}
}

func TestSpanAllocs(t *testing.T) {
	withTracing(t, 3)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		sctx, s := Span(ctx, "test.allocs")
		_ = sctx
		s.End()
	})
	// A recorded root: the span (node embedded, itself the context), its two
	// IDs, and the flight-recorder entry End journals — leave headroom for
	// runtime variation but fail if tracing ever grows a hidden cost.
	if allocs > 8 {
		t.Errorf("Span+End allocates %.0f objects per run, budget 8", allocs)
	}
}

// TestUnrecordedSpanIsFree pins the tracing-off path: no span is recorded,
// so Span hands back the caller's context and a nil span, nothing is
// allocated or counted, and every method is safe on the nil span.
func TestUnrecordedSpanIsFree(t *testing.T) {
	EnableTracing(false)
	ctx := context.Background()
	started0, ended0, dbl0 := SpanStats()
	sctx, s := Span(ctx, "test.quiet")
	if sctx != ctx || s != nil {
		t.Fatalf("Span with tracing off = (%v, %v), want the caller's ctx and nil", sctx, s)
	}
	if r := SpanRemote("test.quiet.remote", TraceContext{TraceID: strings.Repeat("a", 32), SpanID: "00000000000000aa"}); r != nil {
		t.Fatalf("SpanRemote with tracing off = %v, want nil", r)
	}
	if a := testing.AllocsPerRun(100, func() {
		_, s := Span(ctx, "test.quiet")
		s.End()
	}); a != 0 {
		t.Errorf("unrecorded Span+End allocates %.0f objects, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		SpanRemote("test.quiet.remote", TraceContext{}).End()
	}); a != 0 {
		t.Errorf("unrecorded SpanRemote+End allocates %.0f objects, want 0", a)
	}
	var nilSpan *ActiveSpan
	nilSpan.End()
	if _, ok := nilSpan.TraceContext(); ok {
		t.Error("nil span reports a trace context")
	}
	if got := ContextWithSpan(ctx, nilSpan); got != ctx {
		t.Error("ContextWithSpan(ctx, nil) did not return ctx")
	}
	if started, ended, dbl := SpanStats(); started != started0 || ended != ended0 || dbl != dbl0 {
		t.Errorf("SpanStats moved: started %d→%d ended %d→%d double %d→%d",
			started0, started, ended0, ended, dbl0, dbl)
	}
}

func TestRecordTrajectoryCopiesAndMarshalsNonFinite(t *testing.T) {
	vals := []float64{math.Inf(-1), 1.5, math.NaN()}
	RecordTrajectories(Trajectory{Name: "test.traj", Values: vals})
	vals[1] = 999 // must not affect the stored copy

	raw, err := LastRunJSON()
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Trajectories map[string][]*float64 `json:"trajectories"`
	}
	if err := json.Unmarshal(raw, &payload); err != nil {
		t.Fatalf("unmarshal /runz payload: %v\n%s", err, raw)
	}
	tr := payload.Trajectories["test.traj"]
	if len(tr) != 3 {
		t.Fatalf("trajectory length %d, want 3", len(tr))
	}
	if tr[0] != nil || tr[2] != nil {
		t.Error("non-finite values should marshal as null")
	}
	if tr[1] == nil || *tr[1] != 1.5 {
		t.Errorf("trajectory[1] = %v, want 1.5 (copy must be isolated from caller mutation)", tr[1])
	}
	if strings.Contains(string(raw), "NaN") {
		t.Error("NaN leaked into /runz JSON")
	}
}
