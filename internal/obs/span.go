package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// SpanNode is one completed (or in-flight) span of a wall-time tree.
// Fields are written by the owning goroutine; Children is guarded by mu so
// spans may be started from concurrent goroutines under one parent.
// TraceID/SpanID/ParentSpanID are the ID bits derived as documented in
// trace.go, kept as integers: only the readers (TraceContext, the Chrome
// trace export, TraceTopology) render them as hex. A fresh root has
// ParentSpanID 0.
type SpanNode struct {
	Name          string
	TraceID       [2]uint64
	SpanID        uint64
	ParentSpanID  uint64
	StartUnixNano int64
	DurationNanos int64
	Children      []*SpanNode

	mu sync.Mutex
}

// ActiveSpan is a recorded, started span; call End exactly once. A span is
// recorded only when tracing was enabled as its root started, and children
// follow their root, so a tree is never half-recorded. An unrecorded span
// is a nil *ActiveSpan, on which End and TraceContext are no-ops. A second
// End is suppressed (and counted on tradefl_trace_double_close_total)
// rather than corrupting the recorded duration — duplicate delivery in the
// faults fabric must never double-close a span.
//
// A recorded span is also the context that carries it: it wraps the
// context it started in and answers the span key itself, so Span needs no
// context.WithValue allocation.
type ActiveSpan struct {
	context.Context
	node  SpanNode
	root  bool
	ended atomic.Bool
}

// epoch anchors span clocks: a span reads only the monotonic clock, once
// at each end, and stores its start as epoch's wall time plus the offset
// read.
var (
	epoch     = time.Now()
	epochUnix = epoch.UnixNano()
)

// spanKey carries the current span through a context.
type spanKey struct{}

// Value returns s for the span key and defers every other key to the
// context s started in.
func (s *ActiveSpan) Value(key any) any {
	if key == (spanKey{}) {
		return s
	}
	return s.Context.Value(key)
}

// startSpan allocates a recorded span named name inside ctx, starting at
// the monotonic offset at; adopt (or SpanRemote) then gives it its IDs.
func startSpan(ctx context.Context, name string, at time.Duration) *ActiveSpan {
	mSpansStarted.Inc()
	return &ActiveSpan{
		Context: ctx,
		node:    SpanNode{Name: name, StartUnixNano: epochUnix + int64(at)},
	}
}

// adopt links s into a tree: as a child of parent, or as a fresh root
// when parent is nil.
func (s *ActiveSpan) adopt(parent *ActiveSpan) *ActiveSpan {
	n := &s.node
	if parent == nil {
		s.root = true
		n.TraceID, n.SpanID = newRootIDs(n.Name)
		return s
	}
	// The index among the parent's children feeds the child's ID.
	p := &parent.node
	p.mu.Lock()
	p.Children = append(p.Children, n)
	idx := len(p.Children) - 1
	p.mu.Unlock()
	n.TraceID, n.ParentSpanID = p.TraceID, p.SpanID
	n.SpanID = childBits(p.SpanID, n.Name, idx)
	return s
}

// Span starts a span named name. If ctx already carries a span, the new
// span is attached as its child; otherwise it is a root span, and its
// completed tree is published to the trace store on End. The
// returned context — the span itself — carries it for further nesting. An
// unrecorded span (no parent and tracing off) costs no allocation and no
// clock read: ctx comes back unchanged with a nil span.
func Span(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	parent, _ := ctx.Value(spanKey{}).(*ActiveSpan)
	if parent == nil && !tracingEnabled.Load() {
		return ctx, nil
	}
	s := startSpan(ctx, name, time.Since(epoch)).adopt(parent)
	return s, s
}

// Timed is a region that a layer times into its histogram and that a span
// covers when recorded; call End exactly once.
type Timed struct {
	span  *ActiveSpan
	hist  *Histogram
	start time.Duration
}

// SpanTimed is Span for a region the layer also times into h (non-nil):
// one monotonic reading at each end observes h and, when the span is
// recorded, bounds it too. Unrecorded, it allocates nothing and reads the
// clock only for h.
func SpanTimed(ctx context.Context, name string, h *Histogram) (context.Context, Timed) {
	t := Timed{hist: h, start: time.Since(epoch)}
	if parent, _ := ctx.Value(spanKey{}).(*ActiveSpan); parent != nil || tracingEnabled.Load() {
		t.span = startSpan(ctx, name, t.start).adopt(parent)
		ctx = t.span
	}
	return ctx, t
}

// End observes the region's duration in seconds and ends its span.
func (t Timed) End() {
	at := time.Since(epoch)
	t.hist.Observe((at - t.start).Seconds())
	if t.span != nil {
		t.span.end(at)
	}
}

// End records the span's duration; a root span additionally publishes its
// tree to the bounded trace store for /tracez and -trace-out export. End
// after End, or on a nil span, is a no-op.
func (s *ActiveSpan) End() {
	if s != nil {
		s.end(time.Since(epoch))
	}
}

// end closes s at the monotonic offset at.
func (s *ActiveSpan) end(at time.Duration) {
	if s.ended.Swap(true) {
		mSpanDoubleClose.Inc()
		return
	}
	mSpansEnded.Inc()
	n := &s.node
	n.DurationNanos = epochUnix + int64(at) - n.StartUnixNano
	if s.root {
		defaultTraces.add(n)
		traceRootCounter(spanComponent(n.Name)).Inc()
	}
}
