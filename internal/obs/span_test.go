package obs

import (
	"context"
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
	// Only the root is published to the trace store.
	if LastRunSpan("test.child") != nil {
		t.Error("non-root span leaked into the trace store")
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
	// A recorded root: the span (node embedded, itself the context) and its
	// two IDs — leave headroom for runtime variation but fail if tracing ever
	// grows a hidden cost.
	if allocs > 8 {
		t.Errorf("Span+End allocates %.0f objects per run, budget 8", allocs)
	}
}

// TestRecordedSpanAllocs pins a recorded child span at one allocation:
// the span itself, its node embedded and its IDs kept as integers (the
// children slice's amortized growth rounds away over the runs).
func TestRecordedSpanAllocs(t *testing.T) {
	withTracing(t, 3)
	ctx, root := Span(context.Background(), "test.allocs.root")
	defer root.End()
	if a := testing.AllocsPerRun(100, func() {
		_, s := Span(ctx, "test.allocs.child")
		s.End()
	}); a != 1 {
		t.Errorf("recorded child Span+End allocates %.0f objects, want 1", a)
	}
}

// TestUnrecordedSpanIsFree pins the tracing-off path: no span is recorded,
// so Span hands back the caller's context and a nil span, nothing is
// allocated or counted, and every method is safe on the nil span. A
// SpanTimed region still observes its histogram, also without allocating.
func TestUnrecordedSpanIsFree(t *testing.T) {
	EnableTracing(false)
	ctx := context.Background()
	started0, ended0, dbl0 := SpanStats()
	sctx, s := Span(ctx, "test.quiet")
	if sctx != ctx || s != nil {
		t.Fatalf("Span with tracing off = (%v, %v), want the caller's ctx and nil", sctx, s)
	}
	remote := &TraceContext{TraceID: strings.Repeat("a", 32), SpanID: "00000000000000aa"}
	if rctx, r := SpanRemote(ctx, "test.quiet.remote", remote); rctx != ctx || r != nil {
		t.Fatalf("SpanRemote with tracing off = (%v, %v), want the caller's ctx and nil", rctx, r)
	}
	if a := testing.AllocsPerRun(100, func() {
		_, s := Span(ctx, "test.quiet")
		s.End()
	}); a != 0 {
		t.Errorf("unrecorded Span+End allocates %.0f objects, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		_, s := SpanRemote(ctx, "test.quiet.remote", remote)
		s.End()
	}); a != 0 {
		t.Errorf("unrecorded SpanRemote+End allocates %.0f objects, want 0", a)
	}
	h := NewRegistry().Histogram("test_quiet_seconds", "", TimeBuckets)
	if a := testing.AllocsPerRun(100, func() {
		_, r := SpanTimed(ctx, "test.quiet.timed", h)
		r.End()
	}); a != 0 {
		t.Errorf("unrecorded SpanTimed+End allocates %.0f objects, want 0", a)
	}
	if h.Count() != 101 {
		t.Errorf("unrecorded SpanTimed observed %d times in 101 runs", h.Count())
	}
	var nilSpan *ActiveSpan
	nilSpan.End()
	if _, ok := nilSpan.TraceContext(); ok {
		t.Error("nil span reports a trace context")
	}
	if started, ended, dbl := SpanStats(); started != started0 || ended != ended0 || dbl != dbl0 {
		t.Errorf("SpanStats moved: started %d→%d ended %d→%d double %d→%d",
			started0, started, ended0, ended, dbl0, dbl)
	}
}

// TestSpanTimedRecorded: a recorded SpanTimed region is one child span
// whose duration is the one its histogram observed.
func TestSpanTimedRecorded(t *testing.T) {
	withTracing(t, 5)
	h := NewRegistry().Histogram("test_timed_seconds", "", TimeBuckets)
	ctx, root := Span(context.Background(), "test.timed")
	tctx, r := SpanTimed(ctx, "test.timed.region", h)
	if _, ok := TraceFromContext(tctx); !ok {
		t.Fatal("SpanTimed's context carries no span")
	}
	time.Sleep(time.Millisecond)
	r.End()
	root.End()
	n := LastRunSpan("test.timed")
	if len(n.Children) != 1 {
		t.Fatalf("root has %d children, want 1", len(n.Children))
	}
	if c := n.Children[0]; h.Count() != 1 || time.Duration(c.DurationNanos).Seconds() != h.Sum() {
		t.Errorf("span lasted %dns, histogram observed %d values summing %gs", c.DurationNanos, h.Count(), h.Sum())
	}
}

// BenchmarkSpan prices one Span+End: recorded as a child of a recorded
// root (a solve under a traced batch), and unrecorded (tracing off).
func BenchmarkSpan(b *testing.B) {
	b.Run("recorded-child", func(b *testing.B) {
		EnableTracing(true)
		defer EnableTracing(false)
		defer ResetTraces()
		ctx, root := Span(context.Background(), "bench.root")
		defer root.End()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, s := Span(ctx, "bench.child")
			s.End()
			if i%1024 == 1023 { // bound the root's children; keep its backing array
				clear(root.node.Children)
				root.node.Children = root.node.Children[:0]
			}
		}
	})
	b.Run("unrecorded", func(b *testing.B) {
		EnableTracing(false)
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, s := Span(ctx, "bench.child")
			s.End()
		}
	})
}
