package obs

import (
	"context"
	"encoding/json"
	"slices"
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
// completed tree is published to the last-run and trace stores on End. The
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
// tree to the last-run store under its name and to the bounded trace store
// for /tracez export. End after End, or on a nil span, is a no-op.
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
		defaultRuns.mu.Lock()
		defaultRuns.spans[n.Name] = n
		defaultRuns.mu.Unlock()
		defaultTraces.add(n)
		traceRootCounter(spanComponent(n.Name)).Inc()
		FlightRecordTrace("trace", "span-root",
			n.Name+" dur="+time.Duration(n.DurationNanos).String(), n.TraceID)
	}
}

// runStore keeps the most recent completed root span per name plus named
// numeric trajectories (e.g. a solver's bound gap per iteration) for the
// /runz endpoint.
type runStore struct {
	mu    sync.Mutex
	spans map[string]*SpanNode
	traj  map[string][]float64
}

var defaultRuns = &runStore{
	spans: make(map[string]*SpanNode),
	traj:  make(map[string][]float64),
}

// Trajectory is one named per-iteration series of a run.
type Trajectory struct {
	Name   string
	Values []float64
}

// RecordTrajectories publishes the series of the most recent run as one
// set: a reader of /runz never sees one run's series beside another's. The
// values are copied (into one backing array, each series capacity-clipped).
func RecordTrajectories(ts ...Trajectory) {
	n := 0
	for _, t := range ts {
		n += len(t.Values)
	}
	buf := make([]float64, 0, n)
	defaultRuns.mu.Lock()
	for _, t := range ts {
		buf = append(buf, t.Values...)
		defaultRuns.traj[t.Name] = slices.Clip(buf[len(buf)-len(t.Values):])
	}
	defaultRuns.mu.Unlock()
}

// runzPayload is the /runz document.
type runzPayload struct {
	Spans        map[string]*SpanNode    `json:"spans"`
	Trajectories map[string][]jsonNumber `json:"trajectories"`
}

// jsonNumber is a float64 that marshals NaN/±Inf as null.
type jsonNumber float64

func (v jsonNumber) MarshalJSON() ([]byte, error) {
	f := float64(v)
	if p := safeFloat(f); p == nil {
		return []byte("null"), nil
	}
	return json.Marshal(f)
}

// LastRunJSON renders the last-run store (span trees + trajectories) as
// JSON.
func LastRunJSON() ([]byte, error) {
	defaultRuns.mu.Lock()
	payload := runzPayload{
		Spans:        make(map[string]*SpanNode, len(defaultRuns.spans)),
		Trajectories: make(map[string][]jsonNumber, len(defaultRuns.traj)),
	}
	for k, v := range defaultRuns.spans {
		payload.Spans[k] = v
	}
	for k, vs := range defaultRuns.traj {
		row := make([]jsonNumber, len(vs))
		for i, f := range vs {
			row[i] = jsonNumber(f)
		}
		payload.Trajectories[k] = row
	}
	defaultRuns.mu.Unlock()
	return json.MarshalIndent(payload, "", "  ")
}
