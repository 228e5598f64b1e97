package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"tradefl/internal/fleet"
	"tradefl/internal/game"
	"tradefl/internal/gbd"
)

// The event log used to hold values — map[string]any for state, progress
// and result events, the typed InstanceResult for instance events — that
// every stream marshalled again on every delivery, and the status document
// carried []InstanceResult. The legacy* functions below are that form,
// kept here as the reference the encoded-once log is compared against.

// legacyPayload is what a stream put after "data: " for a logged value.
func legacyPayload(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		return []byte(fmt.Sprintf("%q", err.Error()))
	}
	return data
}

func legacyState(id string, state JobState, instances int, errMsg, traceID string) map[string]any {
	data := map[string]any{"id": id, "state": state, "instances": instances}
	if errMsg != "" {
		data["error"] = errMsg
	}
	if traceID != "" {
		data["traceId"] = traceID
	}
	return data
}

func legacyProgress(idx int, r fleet.Result) []any {
	var out []any
	switch {
	case r.GBD != nil:
		n := min(len(r.GBD.UpperBounds), len(r.GBD.LowerBounds))
		for k := 0; k < n; k++ {
			lb, ub := r.GBD.LowerBounds[k], r.GBD.UpperBounds[k]
			out = append(out, map[string]any{
				"instance": idx, "iteration": k, "lowerBound": lb, "upperBound": ub, "gap": ub - lb,
			})
		}
	case r.DBR != nil:
		for k, u := range r.DBR.PotentialTrace {
			out = append(out, map[string]any{"instance": idx, "iteration": k, "potential": u})
		}
	}
	return out
}

type legacyJobStatus struct {
	ID        string           `json:"id"`
	Tenant    string           `json:"tenant"`
	State     JobState         `json:"state"`
	Instances int              `json:"instances"`
	Solved    int              `json:"solved"`
	TraceID   string           `json:"traceId,omitempty"`
	Error     string           `json:"error,omitempty"`
	CreatedAt time.Time        `json:"createdAt"`
	StartedAt *time.Time       `json:"startedAt,omitempty"`
	DoneAt    *time.Time       `json:"doneAt,omitempty"`
	Results   []InstanceResult `json:"results,omitempty"`
}

// encodeFixtures solves one CGBD and one DBR instance and adds the shapes
// real solves do not produce on demand: a bound series that starts at −Inf
// and a failed instance whose message needs JSON's HTML escaping.
func encodeFixtures(t *testing.T) ([]*game.Config, []fleet.Result) {
	t.Helper()
	cfgs := make([]*game.Config, 4)
	for i := range cfgs {
		cfg, err := game.DefaultConfig(game.GenOptions{N: 5, Seed: int64(31 + i)})
		if err != nil {
			t.Fatal(err)
		}
		cfgs[i] = cfg
	}
	ctx := context.Background()
	results := []fleet.Result{
		fleet.New(fleet.Options{Plan: fleet.PlanPruned}).Solve(ctx, cfgs[:1])[0],
		fleet.New(fleet.Options{Plan: fleet.PlanDBR}).Solve(ctx, cfgs[1:2])[0],
	}
	if results[0].Err != nil || results[0].GBD == nil || results[1].Err != nil || results[1].DBR == nil {
		t.Fatalf("fixture solves failed: %+v", results)
	}
	unbounded := results[0]
	unbounded.GBD = &gbd.Result{
		Profile:     unbounded.GBD.Profile,
		Potential:   unbounded.GBD.Potential,
		LowerBounds: []float64{math.Inf(-1), 0.25},
		UpperBounds: []float64{1.5, 0.25},
		Iterations:  2,
		Converged:   true,
	}
	failed := fleet.Result{Plan: fleet.PlanDBR, Err: errors.New(`dbr: <cancelled> & "gone"`)}
	return cfgs, append(results, unbounded, failed)
}

// TestEventLogMatchesLegacyEncoding drives jobs through their lifecycle
// and requires every logged payload, and the status document, to be the
// bytes the value-holding log produced.
func TestEventLogMatchesLegacyEncoding(t *testing.T) {
	cfgs, results := encodeFixtures(t)
	for _, tc := range []struct {
		name    string
		n       int // instances solved before the job ends
		state   JobState
		errMsg  string
		traceID string
	}{
		{"done", 4, StateDone, "", "4bf92f3577b34da6"},
		{"failed", 4, StateFailed, "one or more instances failed", ""},
		{"failed-before-any-result", 0, StateFailed, "job timeout after 5m0s", "4bf92f3577b34da6"},
		{"cancelled-midway", 2, StateCancelled, "cancelled", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job := newJob("job-0badcafe-7", "acme", cfgs, fleet.PlanAuto)
			type logged struct {
				typ  string
				data any
			}
			want := []logged{{"state", legacyState(job.ID, StateQueued, len(cfgs), "", "")}}
			if !job.setRunning(tc.traceID) {
				t.Fatal("setRunning refused a queued job")
			}
			want = append(want, logged{"state", legacyState(job.ID, StateRunning, len(cfgs), "", tc.traceID)})
			var typed []InstanceResult
			for idx := 0; idx < tc.n; idx++ {
				r := results[idx]
				for _, p := range legacyProgress(idx, r) {
					want = append(want, logged{"progress", p})
				}
				res := newInstanceResult(idx, cfgs[idx], r)
				typed = append(typed, res)
				want = append(want, logged{"instance", res})
				job.addResult(progressEvents(idx, r), res)
			}
			job.finish(tc.state, tc.errMsg)
			if tc.state != StateCancelled {
				want = append(want, logged{"result", map[string]any{"id": job.ID, "state": tc.state, "results": typed}})
			}
			want = append(want, logged{"state", legacyState(job.ID, tc.state, len(cfgs), tc.errMsg, tc.traceID)})

			got, _, terminal := job.since(0)
			if !terminal || len(got) != len(want) {
				t.Fatalf("log has %d events (terminal=%v), want %d", len(got), terminal, len(want))
			}
			quoted := 0
			for i, ev := range got {
				ref := legacyPayload(want[i].data)
				if ev.Type != want[i].typ || !bytes.Equal(ev.Data, ref) {
					t.Errorf("event %d:\n got  %s %s\n want %s %s", i, ev.Type, ev.Data, want[i].typ, ref)
				}
				if len(ref) > 0 && ref[0] == '"' {
					quoted++
				}
			}
			if tc.n > 2 && quoted != 1 {
				t.Errorf("%d quoted-error payloads, want exactly 1 (the −Inf lower bound)", quoted)
			}
			if tc.n == 0 && !bytes.Contains(got[len(got)-2].Data, []byte(`"results":null`)) {
				t.Errorf("result event of a job without results: %s", got[len(got)-2].Data)
			}

			st := job.Status()
			ref := legacyJobStatus{
				ID: st.ID, Tenant: st.Tenant, State: st.State, Instances: st.Instances, Solved: st.Solved,
				TraceID: st.TraceID, Error: st.Error, CreatedAt: st.CreatedAt, StartedAt: st.StartedAt,
				DoneAt: st.DoneAt, Results: typed,
			}
			if st.Instances != len(cfgs) || st.Solved != tc.n {
				t.Errorf("status counts %d/%d, want %d/%d", st.Solved, st.Instances, tc.n, len(cfgs))
			}
			gotBody, wantBody := httptest.NewRecorder(), httptest.NewRecorder()
			writeJSON(gotBody, http.StatusOK, st)
			writeJSON(wantBody, http.StatusOK, ref)
			if !bytes.Equal(gotBody.Body.Bytes(), wantBody.Body.Bytes()) {
				t.Errorf("status document:\n got  %s\n want %s", gotBody.Body, wantBody.Body)
			}
			if job.cfgs != nil {
				t.Error("terminal job still holds its instances")
			}
		})
	}
}

// readStream reads a job's SSE stream to its end, optionally resuming
// after lastEventID.
func readStream(t *testing.T, base, id string, lastEventID int) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID >= 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(lastEventID))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestStreamReplayServesLiveBytes: a stream followed while the job runs, a
// replay of the finished job and a Last-Event-ID resume all carry the same
// bytes, and they are the log's payloads in SSE framing.
func TestStreamReplayServesLiveBytes(t *testing.T) {
	s := startGateway(t, Options{StreamChunk: 1})
	base := "http://" + s.Addr()
	resp, created := postJSON(t, base+"/v1/jobs", "", `{"generate":{"count":3,"n":5,"seed":19}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: %d (%v)", resp.StatusCode, created)
	}
	id, _ := created["id"].(string)

	live := readStream(t, base, id, -1)
	replay := readStream(t, base, id, -1)
	if !bytes.Equal(live, replay) {
		t.Fatalf("replay differs from the live stream\nlive:\n%s\nreplay:\n%s", live, replay)
	}
	events, _, _ := s.lookupJob(id).since(0)
	var framed bytes.Buffer
	offsets := make([]int, len(events))
	for i, ev := range events {
		offsets[i] = framed.Len()
		fmt.Fprintf(&framed, "id: %d\nevent: %s\ndata: %s\n\n", i, ev.Type, ev.Data)
	}
	if !bytes.Equal(live, framed.Bytes()) {
		t.Fatalf("stream is not the framed log\nstream:\n%s\nlog:\n%s", live, framed.Bytes())
	}
	for _, last := range []int{0, len(events) / 2, len(events) - 2} {
		if got := readStream(t, base, id, last); !bytes.Equal(got, live[offsets[last+1]:]) {
			t.Errorf("resume after event %d differs from the live stream's tail:\n%s", last, got)
		}
	}
}

// TestCancelQueuedJobRacesRunner: cancelling a queued job from one
// goroutine while a runner picks it up must end in one consistent order —
// cancelled before it ran (nothing solved), cancelled by the runner, or run
// to the end — with nothing logged after the terminal state event and the
// job's instances released. Run under -race: finish drops cfgs while the
// runner may be picking them up.
func TestCancelQueuedJobRacesRunner(t *testing.T) {
	s := testServer(t, Options{})
	s.engines = make(map[fleet.Plan]*fleet.Engine)
	for round := 0; round < 20; round++ {
		job := testJob(t, s, "a", 2)
		if aerr := s.admitJob(job); aerr != nil {
			t.Fatalf("admit: %v", aerr)
		}
		<-s.queue
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); s.runJob(job) }()
		go func() { defer wg.Done(); job.Cancel() }()
		wg.Wait()
		st := job.Status()
		switch {
		case st.State == StateCancelled && st.Error == "cancelled before start" && st.Solved == 0:
		case st.State == StateCancelled && st.Error == "cancelled":
		case st.State == StateDone && st.Solved == st.Instances:
		default:
			t.Fatalf("round %d: state %s (%q) with %d of %d solved", round, st.State, st.Error, st.Solved, st.Instances)
		}
		if events, _, _ := job.since(0); events[len(events)-1].Type != "state" {
			t.Fatalf("round %d: log does not end with the terminal state event", round)
		}
		job.mu.Lock()
		held := job.cfgs != nil
		job.mu.Unlock()
		if held {
			t.Fatalf("round %d: terminal job (%s) still holds its instances", round, st.State)
		}
	}
}

// TestAppendInstanceResultMatchesMarshal: the append encoder writes
// json.Marshal's bytes — across encoding/json's float-format switches, the
// omitempty rules and string escaping — and fails with its error text on
// the values JSON cannot carry.
func TestAppendInstanceResultMatchesMarshal(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 999999e-12, 123.456, -123.456, 1, 3e9,
		1e20, 1e21, -1e21, 123456789012345678901234, 5e-324, 2.2250738585072014e-308,
		math.MaxFloat64, -math.MaxFloat64, 1.0 / 3, 0.1 + 0.2, 1e-10, 1.5e-10, 100000000000000000000,
	}
	var cases []InstanceResult
	for i, f := range floats {
		g := floats[(i+7)%len(floats)]
		cases = append(cases, InstanceResult{
			Index: i, Plan: "pruned", Potential: f, SocialWelfare: g, Iterations: i, Converged: i%2 == 0,
			Profile: game.Profile{{D: f, F: g}, {D: g, F: f}}, Payoffs: []float64{f, g, -f},
		})
	}
	cases = append(cases,
		InstanceResult{},
		InstanceResult{Index: -3, Plan: "dbr", Profile: game.Profile{}, Payoffs: []float64{}},
		InstanceResult{Plan: "auto", Profile: game.Profile{{D: 1, F: 2}}},
		InstanceResult{Plan: "auto", Payoffs: []float64{7}},
		InstanceResult{Plan: "traversal", Error: "gbd: problem infeasible for every f in the grid"},
		InstanceResult{Plan: "dbr", Error: `dbr: <cancelled> & "gone"`},
		InstanceResult{Plan: `a\b`, Error: "tab\there, newline\n, bell\a, del\x7f"},
		InstanceResult{Plan: "π", Error: "organisation « Zürich »   \xff gone"},
	)
	for _, res := range cases {
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendInstanceResult([]byte("x"), &res)
		if err != nil {
			t.Fatalf("%+v: %v", res, err)
		}
		if string(got) != "x"+string(want) {
			t.Errorf("appendInstanceResult:\n got  %s\n want x%s", got, want)
		}
	}

	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, res := range []InstanceResult{
			{Plan: "dbr", Potential: f},
			{Plan: "dbr", SocialWelfare: f},
			{Plan: "dbr", Payoffs: []float64{1, f}},
			{Plan: "dbr", Profile: game.Profile{{D: 1, F: f}}},
			{Plan: "dbr", Profile: game.Profile{{D: f, F: 1}}, Potential: -f},
		} {
			_, wantErr := json.Marshal(res)
			got, err := appendInstanceResult([]byte("x"), &res)
			if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
				t.Errorf("%+v: error %v, json.Marshal's %v", res, err, wantErr)
			}
			if string(got) != "x" {
				t.Errorf("%+v: failed encode left %q in the buffer", res, got)
			}
		}
	}
}

// TestSyncReplyBytes pins the POST /v1/solve body: the compact document
// encoding/json writes for {"results":[…]}, newline included, through the
// real handler — and each result in it is the payload of the same
// instance's SSE event.
func TestSyncReplyBytes(t *testing.T) {
	s := startGateway(t, Options{})
	spec := `{"generate":{"count":3,"n":5,"seed":19}}`
	resp, err := http.Post("http://"+s.Addr()+"/v1/solve", "application/json", bytes.NewReader([]byte(spec)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, content type %q: %s", resp.StatusCode, resp.Header.Get("Content-Type"), got)
	}

	cfgs, plan, err := ParseJobSpec([]byte(spec), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	results := s.syncSolve(context.Background(), cfgs, plan)
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(map[string]any{"results": results}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("sync reply:\n got  %s\n want %s", got, want.Bytes())
	}

	job := newJob("job-0badcafe-8", "acme", cfgs, plan)
	for i, res := range results {
		job.addResult(nil, res)
		if payload := job.events[len(job.events)-1].Data; !bytes.Contains(got, payload) {
			t.Errorf("instance %d: event payload is not in the sync reply:\n%s", i, payload)
		}
	}
}

// TestUnencodableReplyIs500: a solved game whose payoffs overflow to +Inf
// has no JSON form. The reply used to be a committed 200 with an empty
// body; it must be a 500 carrying the error envelope and the request id,
// and count as an error.
func TestUnencodableReplyIs500(t *testing.T) {
	s := startGateway(t, Options{})
	cfg, err := game.DefaultConfig(game.GenOptions{N: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfg.Orgs {
		cfg.Orgs[i].Profitability = 1e308 // valid, and large enough to overflow a payoff
	}
	spec, err := json.Marshal(JobSpec{Games: []GameSpec{{Config: *cfg}}})
	if err != nil {
		t.Fatal(err)
	}
	errorsBefore := mErrors.Value()
	resp, err := http.Post("http://"+s.Addr()+"/v1/solve", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var body errorBody
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("status %d with body %q: %v", resp.StatusCode, raw, err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status %d, want 500 (body %s)", resp.StatusCode, raw)
	}
	reqID := resp.Header.Get("X-Request-Id")
	if reqID == "" || !bytes.Contains([]byte(body.Error), []byte(reqID)) || !bytes.Contains([]byte(body.Error), []byte("unsupported value")) {
		t.Errorf("error %q does not name request %q and the cause", body.Error, reqID)
	}
	if got := mErrors.Value() - errorsBefore; got != 1 {
		t.Errorf("tradefl_serve_errors_total moved by %d, want 1", got)
	}

	// writeJSON itself, for every other route: same envelope, nothing
	// committed before the failure.
	rec := httptest.NewRecorder()
	rec.Header().Set("X-Request-Id", "req-test-1")
	writeJSON(rec, http.StatusOK, map[string]any{"potential": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError || !bytes.Contains(rec.Body.Bytes(), []byte(`"error": "internal error (request req-test-1)`)) {
		t.Errorf("writeJSON of +Inf: status %d, body %s", rec.Code, rec.Body)
	}
}
