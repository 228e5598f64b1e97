package obs

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// withTracing enables tracing with a fixed ID seed for the test and
// restores the disabled default (and an empty trace store) afterwards.
func withTracing(t *testing.T, seed int64) {
	t.Helper()
	EnableTracing(true)
	SeedIDs(seed)
	ResetTraces()
	t.Cleanup(func() {
		EnableTracing(false)
		ResetTraces()
	})
}

// buildSampleTrace creates a small two-trace workload: one nested root and
// one flat root.
func buildSampleTrace() {
	ctx, root := Span(context.Background(), "alpha.run")
	_, step := Span(ctx, "alpha.step")
	step.End()
	root.End()
	_, flat := Span(context.Background(), "beta.run")
	flat.End()
}

func TestTraceTopologyDeterministicUnderSeed(t *testing.T) {
	withTracing(t, 42)
	buildSampleTrace()
	first := TraceTopology()
	if len(first) != 2 {
		t.Fatalf("topology has %d roots, want 2: %v", len(first), first)
	}

	SeedIDs(42)
	ResetTraces()
	buildSampleTrace()
	second := TraceTopology()
	if len(second) != len(first) {
		t.Fatalf("reseeded topology has %d roots, want %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("topology line %d differs under the same seed: %q vs %q", i, first[i], second[i])
		}
	}

	SeedIDs(43)
	ResetTraces()
	buildSampleTrace()
	third := TraceTopology()
	same := true
	for i := range first {
		if first[i] != third[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical trace IDs")
	}
}

func TestTraceIDsOnlyWhenEnabled(t *testing.T) {
	EnableTracing(false)
	ctx, sp := Span(context.Background(), "quiet.run")
	defer sp.End()
	if _, ok := TraceFromContext(ctx); ok {
		t.Error("TraceFromContext reported a trace with tracing disabled")
	}
	if _, ok := sp.TraceContext(); ok {
		t.Error("span carries trace IDs with tracing disabled")
	}
}

func TestSpanRemoteContinuesTrace(t *testing.T) {
	withTracing(t, 7)
	ctx, root := Span(context.Background(), "chaos.run")
	tc, ok := TraceFromContext(ctx)
	if !ok {
		t.Fatal("root span has no trace context with tracing enabled")
	}
	if len(tc.TraceID) != 32 || len(tc.SpanID) != 16 {
		t.Fatalf("unexpected ID widths: trace %q span %q", tc.TraceID, tc.SpanID)
	}
	rctx, remote := SpanRemote(context.Background(), "ring.hop", &tc)
	if rctx != remote {
		t.Error("SpanRemote's context does not carry the continuation")
	}
	rtc, ok := remote.TraceContext()
	if !ok {
		t.Fatal("remote span has no trace context")
	}
	if rtc.TraceID != tc.TraceID {
		t.Errorf("remote span trace = %q, want the originating trace %q", rtc.TraceID, tc.TraceID)
	}
	if rtc.SpanID == tc.SpanID {
		t.Error("remote span reused the parent span ID")
	}
	remote.End()
	root.End()

	// The remote continuation is retained as its own root under the shared
	// trace ID — that is what the topology fingerprint counts.
	var hops int
	for _, line := range TraceTopology() {
		if line == "ring.hop "+tc.TraceID {
			hops++
		}
	}
	if hops != 1 {
		t.Errorf("topology records %d ring.hop roots under the trace, want 1", hops)
	}
}

// TestSpanRemoteMalformedContextFallsBack feeds SpanRemote contexts that
// are not exactly 32 + 16 lowercase hex digits, or carry an all-zero ID:
// each must start a fresh root trace, never continue the sender's.
func TestSpanRemoteMalformedContextFallsBack(t *testing.T) {
	withTracing(t, 7)
	valid := TraceContext{TraceID: strings.Repeat("ab", 16), SpanID: "00000000000000aa"}
	for _, tc := range []TraceContext{
		{TraceID: "not-a-trace", SpanID: "zz"},
		{TraceID: strings.Repeat("z", 32), SpanID: "A"},
		{TraceID: valid.TraceID, SpanID: "aa"},
		{TraceID: valid.TraceID, SpanID: "00000000000000AA"},
		{TraceID: valid.TraceID, SpanID: "+0000000000000aa"},
		{TraceID: valid.TraceID, SpanID: "000000000000000aa"},
		{TraceID: valid.TraceID, SpanID: "0000000000000000"},
		{TraceID: strings.Repeat("AB", 16), SpanID: valid.SpanID},
		{TraceID: strings.Repeat("ab", 15) + "a-", SpanID: valid.SpanID},
		{TraceID: strings.Repeat("0", 32), SpanID: valid.SpanID},
	} {
		_, sp := SpanRemote(context.Background(), "ring.hop", &tc)
		got, ok := sp.TraceContext()
		sp.End()
		if !ok {
			t.Fatalf("%+v: fallback span has no trace context", tc)
		}
		if got.TraceID == tc.TraceID {
			t.Errorf("%+v: malformed context was continued", tc)
		}
		if _, _, ok := (&got).parse(); !ok {
			t.Errorf("%+v: fallback IDs %+v are not well formed", tc, got)
		}
	}
	_, sp := SpanRemote(context.Background(), "ring.hop", &valid)
	if got, _ := sp.TraceContext(); got.TraceID != valid.TraceID {
		t.Errorf("well-formed context %+v was not continued: %+v", valid, got)
	}
	sp.End()
}

// TestSpanRemoteNilIsSpan: without a remote context SpanRemote is Span —
// a child of the span ctx carries.
func TestSpanRemoteNilIsSpan(t *testing.T) {
	withTracing(t, 7)
	ctx, root := Span(context.Background(), "test.remote-nil")
	_, sp := SpanRemote(ctx, "test.remote-nil.child", nil)
	sp.End()
	root.End()
	n := LastRunSpan("test.remote-nil")
	if len(n.Children) != 1 || n.Children[0].ParentSpanID != n.SpanID {
		t.Fatalf("SpanRemote(ctx, name, nil) did not start a child: %+v", n.Children)
	}
}

// TestTraceStoreKeepsNewest: past its capacity the store drops its oldest
// roots and keeps the rest in completion order.
func TestTraceStoreKeepsNewest(t *testing.T) {
	withTracing(t, 11)
	for i := 0; i < traceStoreCap+3; i++ {
		_, sp := Span(context.Background(), "store.run")
		sp.End()
	}
	roots := defaultTraces.snapshot()
	if len(roots) != traceStoreCap {
		t.Fatalf("store holds %d roots, want %d", len(roots), traceStoreCap)
	}
	SeedIDs(11)
	for i := 0; i < 3; i++ {
		newRootIDs("store.run") // the three dropped roots
	}
	for i, r := range roots {
		if want, _ := newRootIDs("store.run"); r.TraceID != want {
			t.Fatalf("root %d has trace %x, want the %dth root's %x", i, r.TraceID, i+4, want)
		}
	}
}

func TestSpanDoubleCloseGuard(t *testing.T) {
	withTracing(t, 1)
	_, sp := Span(context.Background(), "guard.run")
	_, e0, d0 := SpanStats()
	sp.End()
	sp.End()
	sp.End()
	_, e1, d1 := SpanStats()
	if e1-e0 != 1 {
		t.Errorf("span ended %d times, want exactly once", e1-e0)
	}
	if d1-d0 != 2 {
		t.Errorf("double-close counter moved by %d, want 2", d1-d0)
	}
}

func TestChromeTraceJSONParses(t *testing.T) {
	withTracing(t, 99)
	buildSampleTrace()
	data, err := ChromeTraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	if len(parsed.TraceEvents) != 3 {
		t.Fatalf("chrome trace has %d events, want 3", len(parsed.TraceEvents))
	}
	for _, ev := range parsed.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q has phase %q, want complete-event X", ev.Name, ev.Ph)
		}
		if ev.Args["trace"] == "" {
			t.Errorf("event %q lost its trace ID", ev.Name)
		}
		if ev.Dur < 0 {
			t.Errorf("event %q has negative duration", ev.Name)
		}
	}
}
