package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"tradefl/internal/fleet"
	"tradefl/internal/game"
	"tradefl/internal/obs"
)

// JobState is the lifecycle of an async job.
type JobState string

// Job lifecycle states. Queued and Running are live; the other three are
// terminal.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// terminal reports whether the state can no longer change.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event is one progress record of a job, both retained for replay and
// pushed to live SSE streams. Type names the SSE event; Data is its JSON
// payload, encoded once when the event is published: a live stream, a
// Last-Event-ID replay and a retained job all hold the same bytes.
type Event struct {
	Type string
	Data json.RawMessage
}

// InstanceResult is the gateway-level outcome of one solved instance —
// the same quantities core.RunBatch derives (payoffs, social welfare), so
// a streamed result is directly comparable to a batch run.
type InstanceResult struct {
	Index         int          `json:"index"`
	Plan          string       `json:"plan"`
	Profile       game.Profile `json:"profile,omitempty"`
	Potential     float64      `json:"potential"`
	Payoffs       []float64    `json:"payoffs,omitempty"`
	SocialWelfare float64      `json:"socialWelfare"`
	Iterations    int          `json:"iterations,omitempty"`
	Converged     bool         `json:"converged"`
	Error         string       `json:"error,omitempty"`
}

// newInstanceResult reads the mechanism quantities off a fleet result,
// as core.RunBatch does (the byte-identity reference of the serve gate).
func newInstanceResult(idx int, r fleet.Result) InstanceResult {
	out := InstanceResult{Index: idx, Plan: r.Plan.String()}
	if r.Err != nil {
		out.Error = r.Err.Error()
		return out
	}
	out.Profile = r.Profile
	out.Potential = r.Potential
	out.Payoffs = r.Payoffs
	out.SocialWelfare = r.Welfare
	switch {
	case r.GBD != nil:
		out.Iterations = r.GBD.Iterations
		out.Converged = r.GBD.Converged
	case r.DBR != nil:
		out.Iterations = r.DBR.Rounds
		out.Converged = r.DBR.Converged
	}
	return out
}

// Job is one admitted solve request: its instances, lifecycle state, and
// the append-only event log progress streams replay and follow. Results
// are kept only in encoded form — each instance's payload is rendered once
// and shared by its instance event, the terminal result event and the
// status document.
type Job struct {
	ID      string
	Tenant  string
	Created time.Time

	plan fleet.Plan
	// remoteTC is the submitter's trace context (X-Trace-Id/X-Span-Id
	// headers), continued by the job span so one trace covers client →
	// gateway → solver; nil roots a fresh trace.
	remoteTC *obs.TraceContext

	cancel context.CancelFunc

	mu sync.Mutex
	// cfgs are the instances to solve, dropped once the job is terminal;
	// instances keeps their count.
	cfgs      []*game.Config
	instances int
	state     JobState
	err       string
	traceID   string
	started   time.Time
	finished  time.Time
	results   []json.RawMessage
	events    []Event
	changed   chan struct{} // closed+replaced on every publish/state change
}

func newJob(id, tenant string, cfgs []*game.Config, plan fleet.Plan) *Job {
	j := &Job{
		ID:        id,
		Tenant:    tenant,
		Created:   time.Now(),
		cfgs:      cfgs,
		instances: len(cfgs),
		plan:      plan,
		state:     StateQueued,
		changed:   make(chan struct{}),
	}
	j.events = append(j.events, j.stateEventLocked())
	return j
}

// JobStatus is the JSON shape of GET /v1/jobs/{id}. Results holds the
// per-instance payloads (InstanceResult documents) as already encoded.
// encodeJobStatus writes the document; the json tags state the shape, and
// the tests marshal them as its reference.
type JobStatus struct {
	ID        string            `json:"id"`
	Tenant    string            `json:"tenant"`
	State     JobState          `json:"state"`
	Instances int               `json:"instances"`
	Solved    int               `json:"solved"`
	TraceID   string            `json:"traceId,omitempty"`
	Error     string            `json:"error,omitempty"`
	CreatedAt time.Time         `json:"createdAt"`
	StartedAt *time.Time        `json:"startedAt,omitempty"`
	DoneAt    *time.Time        `json:"doneAt,omitempty"`
	Results   []json.RawMessage `json:"results,omitempty"`
}

// Status snapshots the job. Results are included only once the job is
// terminal; a live job reports progress through its stream instead.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.ID,
		Tenant:    j.Tenant,
		State:     j.state,
		Instances: j.instances,
		Solved:    len(j.results),
		TraceID:   j.traceID,
		Error:     j.err,
		CreatedAt: j.Created,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.DoneAt = &t
	}
	if j.state.terminal() {
		st.Results = j.results
	}
	return st
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// stateEventLocked renders the current state as an event. Callers hold mu.
func (j *Job) stateEventLocked() Event {
	return Event{Type: "state", Data: encodeStateEvent(j.ID, j.instances, j.state, j.err, j.traceID)}
}

// notifyLocked wakes every waiter. Callers hold mu.
func (j *Job) notifyLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// setRunning transitions queued → running (no-op when already cancelled)
// and reports whether the job should run.
func (j *Job) setRunning(traceID string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.traceID = traceID
	j.started = time.Now()
	j.events = append(j.events, j.stateEventLocked())
	j.notifyLocked()
	return true
}

// finish moves the job to its terminal state and appends the final state
// event (plus a result event carrying every instance when it completed).
// A terminal job keeps its encoded log and lets go of its instances.
func (j *Job) finish(state JobState, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finishLocked(state, errMsg)
}

// finishLocked is finish for callers that hold mu.
func (j *Job) finishLocked(state JobState, errMsg string) {
	if j.state.terminal() {
		return
	}
	j.state = state
	j.err = errMsg
	j.finished = time.Now()
	j.cfgs = nil
	if state == StateDone || state == StateFailed {
		j.events = append(j.events, Event{Type: "result", Data: encodeResultEvent(j.ID, j.results, state)})
	}
	j.events = append(j.events, j.stateEventLocked())
	j.notifyLocked()
}

// addResults records a solved chunk: per instance its progress events,
// then its instance event, whose payload is also the instance's entry in
// the result event and the status document. Everything is encoded first;
// the chunk is appended under one lock hold and the streams are woken once.
func (j *Job) addResults(progress [][]Event, results []InstanceResult) {
	docs := make([]json.RawMessage, len(results))
	events := make([]Event, 0, 4*len(results)) // a DBR instance: two sweeps and itself
	for i := range results {
		// Encoded on the stack (a larger result spills to the heap) and kept
		// at its exact size: a retained job holds these bytes for a long time.
		var buf [4096]byte
		if enc, err := appendInstanceResult(buf[:0], &results[i]); err != nil {
			docs[i] = appendEncodeError(nil, err)
		} else {
			docs[i] = bytes.Clone(enc)
		}
		events = append(append(events, progress[i]...), Event{Type: "instance", Data: docs[i]})
	}
	j.mu.Lock()
	j.results = append(j.results, docs...)
	j.events = append(j.events, events...)
	j.notifyLocked()
	j.mu.Unlock()
}

// since returns the events past cursor. When none are pending it returns
// the wake channel to wait on and whether the job is terminal (a terminal
// job with no pending events means the stream is complete).
func (j *Job) since(cursor int) ([]Event, <-chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if cursor < len(j.events) {
		// The log is append-only, so the slice is stable to read unlocked.
		return j.events[cursor:], nil, j.state.terminal()
	}
	return nil, j.changed, j.state.terminal()
}

// Cancel cancels the job: a queued job terminates immediately, a running
// one has its solve context cancelled (the runner records the terminal
// state). Returns false when the job was already terminal. The queued case
// is decided and carried out under one lock hold, so a runner that picks
// the job up at the same moment either sees it cancelled or owns it.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return false
	}
	if j.state == StateQueued {
		j.finishLocked(StateCancelled, "cancelled before start")
		j.mu.Unlock()
		return true
	}
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// progressEvents renders the solver's per-master-iteration convergence
// series as stream events: bound gap per CGBD iteration (the lb/ub
// sandwich of Algorithm 1) or potential per DBR sweep — the same series
// the obs telemetry sink records for -telemetry-out.
func progressEvents(idx int, r fleet.Result) []Event {
	n := 0
	switch {
	case r.GBD != nil:
		n = min(len(r.GBD.UpperBounds), len(r.GBD.LowerBounds))
	case r.DBR != nil:
		n = len(r.DBR.PotentialTrace)
	}
	if n == 0 {
		return nil
	}
	// The series is encoded back to back on the stack (a long one spills to
	// the heap) and retained as one exact-size block the events slice up.
	var (
		scratch [2048]byte
		marks   [32]int
	)
	buf, ends := scratch[:0], marks[:0]
	for k := 0; k < n; k++ {
		if r.GBD != nil {
			buf = appendGBDProgress(buf, idx, k, r.GBD.LowerBounds[k], r.GBD.UpperBounds[k])
		} else {
			buf = appendDBRProgress(buf, idx, k, r.DBR.PotentialTrace[k])
		}
		ends = append(ends, len(buf))
	}
	block := bytes.Clone(buf)
	evs := make([]Event, n)
	start := 0
	for k, end := range ends {
		evs[k] = Event{Type: "progress", Data: block[start:end:end]}
		start = end
	}
	return evs
}

// jobID renders sequential job IDs with a per-process base so IDs from a
// restarted gateway don't collide in client logs.
func jobID(base uint64, seq uint64) string {
	return fmt.Sprintf("job-%08x-%d", base&0xffffffff, seq)
}
