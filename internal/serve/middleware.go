package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"tradefl/internal/httpx"
	"tradefl/internal/obs"
)

// statusWriter records the status a handler wrote so the edge middleware
// can count errors without inspecting handler internals, and whether the
// response is an SSE stream.
type statusWriter struct {
	http.ResponseWriter
	status int
	stream bool
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Unwrap lets http.NewResponseController reach the underlying connection
// through the wrapper (the SSE route clears its deadlines that way).
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

var requestSeq atomic.Uint64

// edge is the outermost middleware: request IDs, request metrics (the
// latency histogram skips SSE streams), the per-route write deadline, and
// panic recovery. A panic becomes a 500 with the request ID, increments
// tradefl_serve_panics_total and dumps the flight recorder — the server
// itself stays up.
func (s *Server) edge(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		mRequests.Inc()
		reqID := fmt.Sprintf("req-%08x-%d", s.idBase&0xffffffff, requestSeq.Add(1))
		w.Header().Set("X-Request-Id", reqID)

		// Every route gets a bounded write deadline on top of the server-wide
		// hardened timeouts; the stream handler opts back out per request.
		if err := httpx.SetWriteDeadline(w, routeTimeout); err != nil {
			log.Debug("set route deadline", "err", err)
		}

		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if rec := recover(); rec != nil {
				mPanics.Inc()
				mErrors.Inc()
				obs.FlightRecord("serve", "panic", fmt.Sprintf("%s %s %s: %v", reqID, r.Method, r.URL.Path, rec))
				obs.DumpFlight(s.opts.DumpWriter, fmt.Sprintf("serve panic (%s): %v", reqID, rec))
				log.Error("handler panic", "request", reqID, "path", r.URL.Path, "panic", rec)
				if sw.status == 0 {
					writeError(sw, http.StatusInternalServerError,
						fmt.Sprintf("internal error (request %s)", reqID))
				}
				return
			}
			if !sw.stream {
				mRequestSec.ObserveSince(start)
			}
			if sw.status >= 400 {
				mErrors.Inc()
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// writeJSON answers status with v as an indented JSON document. The body
// is encoded before the status is committed, so a value JSON cannot carry
// is a 500 rather than the intended status over an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		writeEncodeError(w, err)
		return
	}
	writeBody(w, status, buf.Bytes())
}

// writeBody answers status with an already encoded JSON document, unchunked.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write is the client's connection going away
}

// writeEncodeError answers a request whose reply did not encode (in
// practice a non-finite float in a solved result) with a 500 naming the
// request; like every status past 400, edge counts it as an error.
func writeEncodeError(w http.ResponseWriter, err error) {
	reqID := w.Header().Get("X-Request-Id")
	log.Error("encode response", "request", reqID, "err", err)
	writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error (request %s): %v", reqID, err))
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}

// writeAdmitError renders an admission rejection, with a Retry-After hint
// when the rejection is transient.
func writeAdmitError(w http.ResponseWriter, err *admitError) {
	if err.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(err.retryAfter))
	}
	writeError(w, err.status, err.reason)
}

// readJSONBody reads a bounded request body, mapping an over-limit body to
// an explicit 413 (mirroring the chain RPC edge — never silent
// truncation). It reports whether the caller may proceed.
func (s *Server) readJSONBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := httpx.ReadBody(r, maxBody)
	if err != nil {
		if errors.Is(err, httpx.ErrBodyTooLarge) {
			mTooLarge.Inc()
			writeError(w, http.StatusRequestEntityTooLarge, err.Error())
		} else {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("read body: %v", err))
		}
		return nil, false
	}
	return body, true
}

// tenantOf resolves the requesting tenant: the X-Tenant header, or
// "default" when absent so single-tenant deployments need no headers.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// remoteTrace extracts the submitter's trace context from the
// X-Trace-Id/X-Span-Id headers, nil when absent.
func remoteTrace(r *http.Request) *obs.TraceContext {
	traceID := r.Header.Get("X-Trace-Id")
	spanID := r.Header.Get("X-Span-Id")
	if traceID == "" || spanID == "" {
		return nil
	}
	return &obs.TraceContext{TraceID: traceID, SpanID: spanID}
}
