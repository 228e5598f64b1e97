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

// TestDiagRoutes pins the diagnostics mux: every route answers, an unknown
// path and the retired /runz (a process-global copy of the last solve's
// series, which every solver Result carries) are 404s, and the retired alternate formats (the JSON exposition of
// /metrics, the topology lines of /tracez) get each route's one format.
func TestDiagRoutes(t *testing.T) {
	d := startTestDiag(t)
	base := "http://" + d.Addr()
	for _, path := range []string{
		"/metrics", "/healthz", "/tracez", "/flightz",
		"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol",
	} {
		if code, _ := get(t, base+path); code != http.StatusOK {
			t.Errorf("%s status %d, want 200", path, code)
		}
	}
	for _, path := range []string{"/nope", "/runz"} {
		if code, _ := get(t, base+path); code != http.StatusNotFound {
			t.Errorf("%s status %d, want 404", path, code)
		}
	}
	for _, q := range []struct{ path, key, value string }{
		{"/metrics", "format", "json"},
		{"/tracez", "fmt", "topology"},
	} {
		_, plain := get(t, base+q.path)
		url := base + q.path + "?" + q.key + "=" + q.value
		if code, body := get(t, url); code != http.StatusOK || body != plain {
			t.Errorf("%s = %d %q, want the default body %q", url, code, body, plain)
		}
	}
}

// TestDiagTracez: a recorded run's span tree is served by /tracez.
func TestDiagTracez(t *testing.T) {
	withTracing(t, 1)
	_, s := Span(context.Background(), "diag.test.run")
	s.End()
	d := startTestDiag(t)
	if _, body := get(t, "http://"+d.Addr()+"/tracez"); !strings.Contains(body, `"name": "diag.test.run"`) {
		t.Errorf("span diag.test.run missing from /tracez:\n%s", body)
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
