package obs

import (
	"context"
	"encoding/json"
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
	if tc := InjectTrace(ctx); tc != nil {
		t.Errorf("InjectTrace = %+v with tracing disabled, want nil", tc)
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
	remote := SpanRemote("ring.hop", tc)
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

func TestSpanRemoteMalformedContextFallsBack(t *testing.T) {
	withTracing(t, 7)
	sp := SpanRemote("ring.hop", TraceContext{TraceID: "not-a-trace", SpanID: "zz"})
	tc, ok := sp.TraceContext()
	if !ok {
		t.Fatal("fallback span has no trace context")
	}
	if len(tc.TraceID) != 32 {
		t.Errorf("fallback trace ID %q is not 32 hex chars", tc.TraceID)
	}
	sp.End()
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
