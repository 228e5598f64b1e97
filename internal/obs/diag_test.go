package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func startTestDiag(t *testing.T) *DiagServer {
	t.Helper()
	d, err := StartDiag("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestDiagHealthz(t *testing.T) {
	d := startTestDiag(t)
	code, body := get(t, "http://"+d.Addr()+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	var payload struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptimeSeconds"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("healthz body %q: %v", body, err)
	}
	if payload.Status != "ok" || payload.UptimeSeconds < 0 {
		t.Errorf("healthz payload %+v", payload)
	}
}

func TestDiagMetricsText(t *testing.T) {
	NewCounter("diag_test_counter_total", "t").Inc()
	d := startTestDiag(t)
	code, body := get(t, "http://"+d.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(body, "# TYPE diag_test_counter_total counter") {
		t.Errorf("/metrics missing TYPE line:\n%s", body)
	}
	if !strings.Contains(body, "diag_test_counter_total 1") {
		t.Errorf("/metrics missing sample line:\n%s", body)
	}
}

func TestDiagMetricsJSON(t *testing.T) {
	NewGauge("diag_test_gauge", "t").Set(2.5)
	d := startTestDiag(t)
	code, body := get(t, "http://"+d.Addr()+"/metrics?format=json")
	if code != http.StatusOK {
		t.Fatalf("/metrics?format=json status %d", code)
	}
	var samples []map[string]any
	if err := json.Unmarshal([]byte(body), &samples); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	found := false
	for _, s := range samples {
		if s["name"] == "diag_test_gauge" {
			found = true
			if v, _ := s["value"].(float64); v != 2.5 {
				t.Errorf("diag_test_gauge = %v, want 2.5", s["value"])
			}
		}
	}
	if !found {
		t.Error("diag_test_gauge missing from JSON exposition")
	}
}

func TestDiagRunz(t *testing.T) {
	withTracing(t, 1)
	_, s := Span(context.Background(), "diag.test.run")
	s.End()
	RecordTrajectories(Trajectory{Name: "diag.test.series", Values: []float64{1, 2, 3}})
	d := startTestDiag(t)
	code, body := get(t, "http://"+d.Addr()+"/runz")
	if code != http.StatusOK {
		t.Fatalf("/runz status %d", code)
	}
	var payload struct {
		Spans        map[string]json.RawMessage `json:"spans"`
		Trajectories map[string][]float64       `json:"trajectories"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("runz JSON: %v", err)
	}
	if _, ok := payload.Spans["diag.test.run"]; !ok {
		t.Error("span diag.test.run missing from /runz")
	}
	if got := payload.Trajectories["diag.test.series"]; len(got) != 3 {
		t.Errorf("trajectory = %v, want 3 points", got)
	}
}

func TestDiagPprofIndex(t *testing.T) {
	d := startTestDiag(t)
	code, body := get(t, "http://"+d.Addr()+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
	if !strings.Contains(body, "goroutine") {
		t.Error("/debug/pprof/ index does not list profiles")
	}
}

func TestConfigureLoggingRejectsBadInputs(t *testing.T) {
	if err := ConfigureLogging("nope", "text", io.Discard); err == nil {
		t.Error("bad level accepted")
	}
	if err := ConfigureLogging("info", "yaml", io.Discard); err == nil {
		t.Error("bad format accepted")
	}
	if err := ConfigureLogging("debug", "json", io.Discard); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	// Restore defaults for other tests in the package.
	if err := ConfigureLogging("info", "text", io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestComponentLoggerFollowsReconfiguration(t *testing.T) {
	logger := Component("testcomp")
	var sb strings.Builder
	if err := ConfigureLogging("info", "json", &sb); err != nil {
		t.Fatal(err)
	}
	logger.Info("hello", "k", "v")
	out := sb.String()
	if !strings.Contains(out, `"component":"testcomp"`) {
		t.Errorf("component attr missing: %s", out)
	}
	if !strings.Contains(out, `"msg":"hello"`) {
		t.Errorf("message missing: %s", out)
	}
	// Loggers created before reconfiguration must follow it: raise the
	// level and the same logger goes quiet.
	sb.Reset()
	if err := ConfigureLogging("error", "json", &sb); err != nil {
		t.Fatal(err)
	}
	logger.Info("should be dropped")
	if sb.Len() != 0 {
		t.Errorf("info logged at error level: %s", sb.String())
	}
	if err := ConfigureLogging("info", "text", io.Discard); err != nil {
		t.Fatal(err)
	}
}
