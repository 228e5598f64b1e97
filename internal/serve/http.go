package serve

import (
	"fmt"
	"io"
	"net/http"
	"strconv"

	"tradefl/internal/httpx"
)

// handler builds the gateway's route table.
func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleCreateJob)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStreamJob)
	mux.HandleFunc("POST /v1/solve", s.handleSyncSolve)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s.edge(mux)
}

// handleCreateJob admits an async job: parse and validate the spec, run
// the admission pipeline, answer 202 with the job's initial status. That
// status is taken before admission hands the job to a runner, which may
// finish a small job before the reply is written.
func (s *Server) handleCreateJob(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readJSONBody(w, r)
	if !ok {
		return
	}
	games, plan, err := parseJob(body, s.opts.Limits)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	job := newJob(s.newJobID(), tenantOf(r), games, plan)
	job.remoteTC = remoteTrace(r)
	initial := job.Status()
	if aerr := s.admitJob(job); aerr != nil {
		writeAdmitError(w, aerr)
		return
	}
	log.Debug("job admitted", "id", job.ID, "tenant", job.Tenant, "instances", len(games))
	writeJobStatus(w, http.StatusAccepted, initial)
}

// handleGetJob answers the job's current status; terminal jobs include
// their full per-instance results.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job := s.lookupJob(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	writeJobStatus(w, http.StatusOK, job.Status())
}

// writeJobStatus answers status with the status document st.
func writeJobStatus(w http.ResponseWriter, status int, st JobStatus) {
	body, err := encodeJobStatus(&st)
	if err != nil {
		writeEncodeError(w, err)
		return
	}
	writeBody(w, status, body)
}

// handleCancelJob cancels a queued or running job.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	job := s.lookupJob(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	if !job.Cancel() {
		writeError(w, http.StatusConflict, fmt.Sprintf("job %s is already %s", job.ID, job.State()))
		return
	}
	writeJobStatus(w, http.StatusOK, job.Status())
}

// handleStreamJob follows a job as Server-Sent Events: it replays the
// job's event log from the client's cursor (Last-Event-ID on reconnect),
// then pushes state transitions, per-iteration solver progress
// (bound gap / potential), per-instance results and the final result
// event as they happen. The stream is long-lived, so it opts out of the
// per-route and server write deadlines.
func (s *Server) handleStreamJob(w http.ResponseWriter, r *http.Request) {
	job := s.lookupJob(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	if !httpx.NoDeadlines(w, r) {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by connection")
		return
	}
	// The stream lives as long as its job, so its wall time is not request
	// latency: edge leaves it out of tradefl_serve_request_seconds.
	if sw, ok := w.(*statusWriter); ok {
		sw.stream = true
	}
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	cursor := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			// The last int has no successor (n+1 wraps below zero); it is
			// past every log anyway, like any id the job has not reached.
			cursor = max(n, n+1)
		}
	}

	mStreamClients.Add(1)
	defer mStreamClients.Add(-1)
	var head []byte // one event's "id/event/data:" lines, reused
	for {
		events, wake, terminal := job.since(cursor)
		if len(events) > 0 {
			// Payloads were encoded at publish time and go out as they are.
			// The response writer buffers, and a write error sticks to it, so
			// the batch is written through and the error read at Flush.
			for _, ev := range events {
				head = append(head[:0], "id: "...)
				head = strconv.AppendInt(head, int64(cursor), 10)
				head = append(head, "\nevent: "...)
				head = append(head, ev.Type...)
				head = append(head, "\ndata: "...)
				_, _ = w.Write(head)
				_, _ = w.Write(ev.Data)
				_, _ = io.WriteString(w, "\n\n")
				cursor++
			}
			mStreamEvents.Add(int64(len(events)))
			if err := rc.Flush(); err != nil {
				return
			}
			continue
		}
		if terminal {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		case <-s.stop:
			// Drain: flush whatever the job has published and end the
			// stream once it is terminal; one more pass picks up the final
			// events the draining runners still produce.
			if job.State().terminal() {
				return
			}
			select {
			case <-wake:
			case <-r.Context().Done():
				return
			}
		}
	}
}

// handleSyncSolve is the bounded synchronous path: small jobs solved on
// the request goroutine, results in the response body. Larger specs are
// redirected to the async queue with a 422.
func (s *Server) handleSyncSolve(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readJSONBody(w, r)
	if !ok {
		return
	}
	games, plan, err := parseJob(body, s.opts.Limits)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(games) > syncMaxInstances {
		writeError(w, http.StatusUnprocessableEntity,
			fmt.Sprintf("sync solve accepts at most %d instances (got %d); submit an async job via POST /v1/jobs", syncMaxInstances, len(games)))
		return
	}
	for i, in := range games {
		if in.N() > syncMaxN {
			writeError(w, http.StatusUnprocessableEntity,
				fmt.Sprintf("sync solve accepts at most N=%d organizations (instance %d has %d); submit an async job via POST /v1/jobs", syncMaxN, i, in.N()))
			return
		}
	}
	if aerr := s.admitTokens(tenantOf(r), len(games)); aerr != nil {
		writeAdmitError(w, aerr)
		return
	}
	results := s.syncSolve(r.Context(), games, plan)
	reply, err := encodeSyncReply(results)
	if err != nil {
		writeEncodeError(w, err)
		return
	}
	writeBody(w, http.StatusOK, reply)
}

// handleHealthz reports liveness and drain state (503 while draining, so
// load balancers stop routing to a stopping gateway).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	jobs := len(s.jobs)
	s.mu.Unlock()
	status := http.StatusOK
	state := "ok"
	if draining {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	writeJSON(w, status, map[string]any{"status": state, "jobs": jobs})
}
