package obs

import (
	"context"
	"encoding/json"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Distributed tracing. Spans gain W3C-style identifiers — a 128-bit trace
// ID shared by every span of one logical operation and a 64-bit span ID
// per span — rendered as lowercase hex. TraceContext is the wire form:
// protocol layers (transport.Message, the chain RPC envelope) embed it as
// an optional JSON field, and the receiving process continues the trace
// with SpanRemote. Every recorded span carries IDs; with tracing off no
// span is recorded, and a Span call is a context lookup and an atomic load.
//
// IDs are derived by hashing, not drawn from a shared counter: a root
// span's trace ID is H(seed, name, per-name occurrence) and a child's span
// ID is H(parent span ID, name, child index). Under a fixed seed (SeedIDs,
// wired to the faults plan seed) two runs of the same seeded scenario
// therefore produce bit-identical trace topologies regardless of goroutine
// interleaving in unrelated subsystems — the property the chaos
// determinism gate asserts. Unseeded processes fold the wall clock into
// the base so concurrent processes do not collide.

// TraceContext is the cross-process trace propagation payload.
type TraceContext struct {
	TraceID string `json:"traceId"`
	SpanID  string `json:"spanId"`
}

var tracingEnabled atomic.Bool

// EnableTracing turns span recording on or off for roots started from now
// on; a tree whose root is already recorded stays recorded to its end.
// Commands turn it on with -trace-out; in-process callers (the bench,
// tests) call it directly. Disabled (the default) records no span trees and
// retains no traces, and solver outputs are identical either way.
func EnableTracing(on bool) { tracingEnabled.Store(on) }

// TracingEnabled reports whether new root spans are recorded.
func TracingEnabled() bool { return tracingEnabled.Load() }

// ids is the process-wide trace-ID derivation state.
var ids = struct {
	mu   sync.Mutex
	base uint64            // seed (seeded) or wall-clock base (unseeded)
	occ  map[string]uint64 // per-root-name occurrence counter
}{base: uint64(time.Now().UnixNano()), occ: make(map[string]uint64)}

// SeedIDs rebases trace-ID derivation on seed and resets the per-name
// occurrence counters, making subsequent root IDs a pure function of
// (seed, name, occurrence). Call it at the start of a seeded scenario
// (the chaos harness does, from the faults plan seed).
func SeedIDs(seed int64) {
	ids.mu.Lock()
	ids.base = uint64(seed)
	ids.occ = make(map[string]uint64)
	ids.mu.Unlock()
}

const golden = 0x9E3779B97F4A7C15

// mix is the splitmix64 finalizer: a cheap, well-distributed 64-bit hash.
func mix(x uint64) uint64 {
	x += golden
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// fnv64 is FNV-1a over s.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// putHex writes x as 16 lowercase hex digits into b[:16]. Hand-rolled
// rather than fmt.Sprintf("%016x", x): Sprintf costs a format-parse plus
// an interface allocation per call.
func putHex(b []byte, x uint64) {
	const digits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		b[i] = digits[x&0xf]
		x >>= 4
	}
}

// hex64 renders a span ID as 16 lowercase hex digits.
func hex64(x uint64) string {
	var b [16]byte
	putHex(b[:], x)
	return string(b[:])
}

// hex128 renders a trace ID as 32 lowercase hex digits.
func hex128(id [2]uint64) string {
	var b [32]byte
	putHex(b[:16], id[0])
	putHex(b[16:], id[1])
	return string(b[:])
}

// newRootIDs derives the trace/span ID bits for a new root span.
func newRootIDs(name string) (traceID [2]uint64, spanID uint64) {
	ids.mu.Lock()
	base := ids.base
	n := ids.occ[name] + 1
	ids.occ[name] = n
	ids.mu.Unlock()
	t := mix(base ^ fnv64(name) ^ n*golden)
	return [2]uint64{t, mix(t ^ 0x7261646566746c31)}, mix(t ^ 0x726f6f74) // "radeftl1", "root"
}

// childBits derives a child span ID from its parent's span ID, its name
// and its index among the parent's children.
func childBits(parentBits uint64, name string, idx int) uint64 {
	return mix(parentBits ^ fnv64(name) ^ (uint64(idx)+1)*golden)
}

// spanComponent extracts the component of a span name: the prefix before
// the first dot ("gbd.solve" → "gbd").
func spanComponent(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

var (
	mSpansStarted = NewCounter("tradefl_trace_spans_started_total",
		"Recorded spans started in this process.")
	mSpansEnded = NewCounter("tradefl_trace_spans_ended_total",
		"Recorded spans ended in this process.")
	mSpanDoubleClose = NewCounter("tradefl_trace_double_close_total",
		"ActiveSpan.End calls after the span was already ended (suppressed).")
	mTraceRootsByComp sync.Map // component → *Counter
)

func traceRootCounter(component string) *Counter {
	if c, ok := mTraceRootsByComp.Load(component); ok {
		return c.(*Counter)
	}
	c := NewLabeledCounter("tradefl_trace_roots_total",
		"Completed root spans retained for trace export, by component.",
		LabelPair{Key: "component", Value: component})
	actual, _ := mTraceRootsByComp.LoadOrStore(component, c)
	return actual.(*Counter)
}

// SpanStats returns the process-wide started/ended/double-closed span
// counts — the leak ledger trace-propagation tests assert on.
func SpanStats() (started, ended, doubleClosed int64) {
	return mSpansStarted.Value(), mSpansEnded.Value(), mSpanDoubleClose.Value()
}

// TraceFromContext extracts the propagation payload of the span carried by
// ctx. It reports false when ctx carries no recorded span, so callers can
// skip injection entirely.
func TraceFromContext(ctx context.Context) (TraceContext, bool) {
	s, _ := ctx.Value(spanKey{}).(*ActiveSpan)
	return s.TraceContext()
}

// TraceContext returns the span's propagation payload (false on a nil,
// i.e. unrecorded, span).
func (s *ActiveSpan) TraceContext() (TraceContext, bool) {
	if s == nil {
		return TraceContext{}, false
	}
	return TraceContext{TraceID: hex128(s.node.TraceID), SpanID: hex64(s.node.SpanID)}, true
}

// parse returns tc's ID bits. It accepts only what TraceContext renders —
// exactly 32 + 16 lowercase hex digits, which rendering the parsed bits
// back checks — with neither ID all zero (the W3C invalid value).
func (tc *TraceContext) parse() (traceID [2]uint64, spanID uint64, ok bool) {
	if len(tc.TraceID) != 32 {
		return traceID, 0, false
	}
	traceID[0], _ = strconv.ParseUint(tc.TraceID[:16], 16, 64)
	traceID[1], _ = strconv.ParseUint(tc.TraceID[16:], 16, 64)
	spanID, _ = strconv.ParseUint(tc.SpanID, 16, 64)
	ok = traceID != [2]uint64{} && spanID != 0 && hex128(traceID) == tc.TraceID && hex64(spanID) == tc.SpanID
	return traceID, spanID, ok
}

// SpanRemote starts a span that continues a trace begun in another
// process (or another node of the ring): a local root that keeps the
// remote trace ID and records the remote span as its parent. Like Span,
// the returned context is the span, so further spans in it nest under the
// continuation, and the span publishes to the trace store on End. A nil tc
// makes it Span. A malformed context falls back to a fresh root trace — a
// corrupt frame must never corrupt local tracing. With tracing off it
// records nothing and returns ctx and a nil span.
func SpanRemote(ctx context.Context, name string, tc *TraceContext) (context.Context, *ActiveSpan) {
	if tc == nil {
		return Span(ctx, name)
	}
	if !tracingEnabled.Load() {
		return ctx, nil
	}
	s := startSpan(ctx, name, time.Since(epoch))
	traceID, parentID, ok := tc.parse()
	if !ok {
		return s, s.adopt(nil)
	}
	s.root = true
	s.node.TraceID, s.node.ParentSpanID, s.node.SpanID = traceID, parentID, childBits(parentID, name, 0)
	return s, s
}

// traceStore retains the most recent completed root spans (full trees),
// oldest first, for /tracez and -trace-out export.
type traceStore struct {
	mu    sync.Mutex
	roots []*SpanNode
}

const traceStoreCap = 256

var defaultTraces = &traceStore{}

func (t *traceStore) add(n *SpanNode) {
	t.mu.Lock()
	if len(t.roots) == traceStoreCap {
		copy(t.roots, t.roots[1:])
		t.roots = t.roots[:traceStoreCap-1]
	}
	t.roots = append(t.roots, n)
	t.mu.Unlock()
}

// snapshot returns retained roots oldest-first.
func (t *traceStore) snapshot() []*SpanNode {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*SpanNode(nil), t.roots...)
}

// ResetTraces drops all retained traces (test hook; also used between
// repeated seeded runs so each run exports only its own topology).
func ResetTraces() {
	defaultTraces.mu.Lock()
	defaultTraces.roots = nil
	defaultTraces.mu.Unlock()
}

// TraceTopology returns one "name traceID" line per retained root span,
// sorted — the seed-deterministic fingerprint the chaos determinism test
// compares across runs.
func TraceTopology() []string {
	roots := defaultTraces.snapshot()
	out := make([]string, 0, len(roots))
	for _, r := range roots {
		out = append(out, r.Name+" "+hex128(r.TraceID))
	}
	sort.Strings(out)
	return out
}

// chromeEvent is one Chrome trace-event-format entry (complete event,
// ph "X", timestamps in microseconds).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

func flattenChrome(n *SpanNode, traceID string, tid int, out []chromeEvent) []chromeEvent {
	args := map[string]string{"trace": traceID, "span": hex64(n.SpanID)}
	if n.ParentSpanID != 0 {
		args["parent"] = hex64(n.ParentSpanID)
	}
	out = append(out, chromeEvent{
		Name: n.Name,
		Cat:  spanComponent(n.Name),
		Ph:   "X",
		Ts:   float64(n.StartUnixNano) / 1e3,
		Dur:  float64(n.DurationNanos) / 1e3,
		Pid:  1,
		Tid:  tid,
		Args: args,
	})
	n.mu.Lock()
	children := append([]*SpanNode(nil), n.Children...)
	n.mu.Unlock()
	for _, c := range children {
		out = flattenChrome(c, traceID, tid, out)
	}
	return out
}

// ChromeTraceJSON renders every retained trace in the Chrome trace-event
// format (load into chrome://tracing or Perfetto). Each root tree gets its
// own tid so concurrent traces render as separate rows.
func ChromeTraceJSON() ([]byte, error) {
	roots := defaultTraces.snapshot()
	doc := chromeTrace{TraceEvents: []chromeEvent{}}
	for i, r := range roots {
		doc.TraceEvents = flattenChrome(r, hex128(r.TraceID), i+1, doc.TraceEvents)
	}
	return json.MarshalIndent(doc, "", " ")
}
