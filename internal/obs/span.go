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
// TraceID/SpanID/ParentSpanID are stable hex strings derived as documented
// in trace.go; a fresh root has no ParentSpanID.
type SpanNode struct {
	Name          string      `json:"name"`
	TraceID       string      `json:"traceId,omitempty"`
	SpanID        string      `json:"spanId,omitempty"`
	ParentSpanID  string      `json:"parentSpanId,omitempty"`
	StartUnixNano int64       `json:"startUnixNano"`
	DurationNanos int64       `json:"durationNanos"`
	Children      []*SpanNode `json:"children,omitempty"`

	mu sync.Mutex
}

// addChild appends c and returns its index among the parent's children —
// the index feeds deterministic child span-ID derivation.
func (n *SpanNode) addChild(c *SpanNode) int {
	n.mu.Lock()
	n.Children = append(n.Children, c)
	idx := len(n.Children) - 1
	n.mu.Unlock()
	return idx
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
	node     SpanNode
	start    time.Duration // monotonic offset from epoch
	root     bool
	spanBits uint64 // ID bits for child derivation
	ended    atomic.Bool
}

// epoch anchors span clocks: a span reads only the monotonic clock, once
// at each end, and its wall start is epoch's plus its offset.
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

// startSpan allocates a recorded span starting now inside ctx.
func startSpan(ctx context.Context, name string) *ActiveSpan {
	at := time.Since(epoch)
	mSpansStarted.Inc()
	return &ActiveSpan{
		Context: ctx,
		node:    SpanNode{Name: name, StartUnixNano: epochUnix + int64(at)},
		start:   at,
	}
}

// Span starts a span named name. If ctx already carries a span, the new
// span is attached as its child; otherwise it is a root span, and its
// completed tree is published to the trace store on End. The
// returned context — the span itself — carries it for further nesting. An
// unrecorded span (no parent and tracing off) costs no allocation: ctx
// comes back unchanged with a nil span.
func Span(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	parent, _ := ctx.Value(spanKey{}).(*ActiveSpan)
	if parent == nil && !tracingEnabled.Load() {
		return ctx, nil
	}
	s := startSpan(ctx, name)
	if parent != nil {
		idx := parent.node.addChild(&s.node)
		s.node.TraceID = parent.node.TraceID
		s.node.ParentSpanID = parent.node.SpanID
		s.spanBits = childBits(parent.spanBits, name, idx)
	} else {
		s.root = true
		s.node.TraceID, s.spanBits = newRootIDs(name)
	}
	s.node.SpanID = hex64(s.spanBits)
	return s, s
}

// ContextWithSpan returns ctx carrying s as the current span — the bridge
// remote-continuation roots (SpanRemote) use to parent further local
// spans under themselves, e.g. the gateway joining a submitter's trace
// before handing the context to the solver. A nil s returns ctx.
func ContextWithSpan(ctx context.Context, s *ActiveSpan) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// End records the span's duration; a root span additionally publishes its
// tree to the bounded trace store for /tracez and -trace-out export. End
// after End, or on a nil span, is a no-op.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	if s.ended.Swap(true) {
		mSpanDoubleClose.Inc()
		return
	}
	mSpansEnded.Inc()
	n := &s.node
	n.DurationNanos = int64(time.Since(epoch) - s.start)
	if s.root {
		defaultTraces.add(n)
		traceRootCounter(spanComponent(n.Name)).Inc()
	}
}
