package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"tradefl/internal/httpx"
)

// DiagServer is the opt-in HTTP diagnostics endpoint of a TradeFL process:
// /metrics (Prometheus text; ?format=json for JSON), /healthz, /runz (the
// last run's solver trajectories, plus its span trees while tracing is on)
// and /debug/pprof.
type DiagServer struct {
	srv   *http.Server
	ln    net.Listener
	start time.Time
}

// StartDiag binds addr (e.g. "127.0.0.1:6060" or ":0") and serves
// diagnostics until Close.
func StartDiag(addr string) (*DiagServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: diag listen %s: %w", addr, err)
	}
	d := &DiagServer{ln: ln, start: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", d.handleMetrics)
	mux.HandleFunc("/healthz", d.handleHealthz)
	mux.HandleFunc("/runz", d.handleRunz)
	mux.HandleFunc("/tracez", d.handleTracez)
	mux.HandleFunc("/flightz", d.handleFlightz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", longLived(pprof.Profile))
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", longLived(pprof.Trace))
	// Harden adds full-request read, write and idle timeouts on top of the
	// header timeout (request-body slowloris); the CPU-profile and
	// execution-trace routes, which legitimately run for ?seconds=N, opt
	// out per request above.
	d.srv = httpx.Harden(&http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second})
	go func() {
		if err := d.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			Component("obs").Error("diag server stopped", "err", err)
		}
	}()
	return d, nil
}

// Addr returns the bound address.
func (d *DiagServer) Addr() string { return d.ln.Addr().String() }

// longLived wraps a handler that legitimately outlives the server-wide
// write timeout (CPU profiles, execution traces) by clearing the
// connection deadlines for its request only.
func longLived(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		httpx.NoDeadlines(w, r)
		h(w, r)
	}
}

// Close stops the server gracefully: in-flight scrapes and profiles get a
// bounded window to finish (a hard Close used to cut /metrics responses
// and pprof profiles mid-body), then any stragglers are cut. Commands
// defer this on their SIGINT/SIGTERM exit paths, so a drain happens on
// every shutdown.
func (d *DiagServer) Close() error {
	return httpx.Shutdown(d.srv, httpx.DefaultShutdownTimeout)
}

func (d *DiagServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		if err := Default.WriteJSON(w); err != nil {
			Component("obs").Debug("metrics json write failed", "err", err)
		}
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := Default.WritePrometheus(w); err != nil {
		Component("obs").Debug("metrics write failed", "err", err)
	}
}

func (d *DiagServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":        "ok",
		"uptimeSeconds": time.Since(d.start).Seconds(),
	})
}

func (d *DiagServer) handleRunz(w http.ResponseWriter, _ *http.Request) {
	raw, err := LastRunJSON()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(raw)
}

// handleTracez serves retained traces: ?fmt=chrome (the default) renders
// Chrome trace-event JSON for chrome://tracing / Perfetto; ?fmt=topology
// renders the sorted root-span fingerprint lines.
func (d *DiagServer) handleTracez(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("fmt") == "topology" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, line := range TraceTopology() {
			fmt.Fprintln(w, line)
		}
		return
	}
	raw, err := ChromeTraceJSON()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(raw)
}

// handleFlightz serves the flight-recorder journal on demand.
func (d *DiagServer) handleFlightz(w http.ResponseWriter, _ *http.Request) {
	raw, err := FlightDumpJSON("on-demand /flightz")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(raw)
}
