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
	"strings"
	"sync"
	"testing"
	"time"

	"tradefl/internal/dbr"
	"tradefl/internal/fleet"
	"tradefl/internal/game"
	"tradefl/internal/gbd"
)

// The event log used to hold values — map[string]any for state, progress
// and result events, the typed InstanceResult for instance events — that
// every stream marshalled again on every delivery, and the status document
// was encoding/json's indenting encoder over a struct. The legacy* functions
// and the struct forms below are those encodings, kept here as the
// references the append-built log and status document are compared against.

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

// The typed forms of the result and progress events, as production
// marshalled them until the append encoder took over (keys alphabetical,
// like the maps before them).
type (
	resultEvent struct {
		ID      string            `json:"id"`
		Results []json.RawMessage `json:"results"`
		State   JobState          `json:"state"`
	}
	gbdProgress struct {
		Gap        float64 `json:"gap"`
		Instance   int     `json:"instance"`
		Iteration  int     `json:"iteration"`
		LowerBound float64 `json:"lowerBound"`
		UpperBound float64 `json:"upperBound"`
	}
	dbrProgress struct {
		Instance  int     `json:"instance"`
		Iteration int     `json:"iteration"`
		Potential float64 `json:"potential"`
	}
)

// indented is writeJSON's body for v: the document the gateway served for a
// JobStatus before encodeJobStatus.
func indented(t testing.TB, v any) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, v)
	if rec.Code != http.StatusOK {
		t.Fatalf("writeJSON(%T): status %d: %s", v, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// checkStatusDocument requires the job's status document to be, byte for
// byte, encoding/json's rendering of the JobStatus snapshot (RawMessage
// results re-compacted and re-indented: the parent's path) and of the
// all-typed legacy form.
func checkStatusDocument(t *testing.T, job *Job, typed []InstanceResult) {
	t.Helper()
	st := job.Status()
	got, err := encodeJobStatus(&st)
	if err != nil {
		t.Fatalf("encodeJobStatus: %v", err)
	}
	ref := legacyJobStatus{
		ID: st.ID, Tenant: st.Tenant, State: st.State, Instances: st.Instances, Solved: st.Solved,
		TraceID: st.TraceID, Error: st.Error, CreatedAt: st.CreatedAt, StartedAt: st.StartedAt,
		DoneAt: st.DoneAt,
	}
	if st.State.terminal() {
		ref.Results = typed
	}
	for _, v := range []any{st, ref} {
		if want := indented(t, v); !bytes.Equal(got, want) {
			t.Errorf("%s status document differs from writeJSON(%T):\n got  %s\n want %s", st.State, v, got, want)
		}
	}
	if st.Solved != len(typed) || (len(st.Results) > 0) != (st.State.terminal() && len(typed) > 0) {
		t.Errorf("%s status: solved %d, %d results, want %d solved", st.State, st.Solved, len(st.Results), len(typed))
	}
	if bytes.Contains(got, []byte(`"results"`)) != (len(st.Results) > 0) {
		t.Errorf("%s status with %d results: results key presence is wrong:\n%s", st.State, len(st.Results), got)
	}
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
// and requires every logged payload, and the status document at every stage
// (queued, running, after each result, terminal), to be the bytes the
// encoding/json forms produce.
func TestEventLogMatchesLegacyEncoding(t *testing.T) {
	fixtureCfgs, results := encodeFixtures(t)
	const hostile = `solver <died> & "quit" \ at 50% — größer ☃ ` + "\xff\u2028"
	for _, tc := range []struct {
		name    string
		n       int // instances solved before the job ends
		state   JobState
		errMsg  string
		traceID string
	}{
		{"done", 4, StateDone, "", "4bf92f3577b34da6"},
		{"done-one-result", 1, StateDone, "", ""},
		{"done-64-results", 64, StateDone, "", "4bf92f3577b34da6"},
		{"failed", 4, StateFailed, "one or more instances failed", ""},
		{"failed-hostile-error", 3, StateFailed, hostile, `<trace>&"`},
		{"failed-before-any-result", 0, StateFailed, "job timeout after 5m0s", "4bf92f3577b34da6"},
		{"cancelled-midway", 2, StateCancelled, "cancelled", ""},
		{"cancelled-before-any-result", 0, StateCancelled, hostile, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfgs := make([]*game.Config, max(tc.n, len(fixtureCfgs)))
			for i := range cfgs {
				cfgs[i] = fixtureCfgs[i%len(fixtureCfgs)]
			}
			job := newJob("job-0badcafe-7", "acme <&> co", cfgs, fleet.PlanAuto)
			type logged struct {
				typ  string
				data any
			}
			want := []logged{{"state", legacyState(job.ID, StateQueued, len(cfgs), "", "")}}
			checkStatusDocument(t, job, nil)
			if !job.setRunning(tc.traceID) {
				t.Fatal("setRunning refused a queued job")
			}
			want = append(want, logged{"state", legacyState(job.ID, StateRunning, len(cfgs), "", tc.traceID)})
			checkStatusDocument(t, job, nil)
			var typed []InstanceResult
			wantQuoted := 0
			for idx := 0; idx < tc.n; idx++ {
				r := results[idx%len(results)]
				for _, p := range legacyProgress(idx, r) {
					want = append(want, logged{"progress", p})
				}
				if idx%len(results) == 2 {
					wantQuoted++ // the −Inf lower bound
				}
				res := newInstanceResult(idx, r)
				typed = append(typed, res)
				want = append(want, logged{"instance", res})
				job.addResult(progressEvents(idx, r), res)
				checkStatusDocument(t, job, typed)
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
			if quoted != wantQuoted {
				t.Errorf("%d quoted-error payloads, want %d (the −Inf lower bounds)", quoted, wantQuoted)
			}
			if tc.n == 0 && tc.state == StateFailed && !bytes.Contains(got[len(got)-2].Data, []byte(`"results":null`)) {
				t.Errorf("result event of a job without results: %s", got[len(got)-2].Data)
			}

			checkStatusDocument(t, job, typed)
			if st := job.Status(); st.Instances != len(cfgs) || st.Solved != tc.n {
				t.Errorf("status counts %d/%d, want %d/%d", st.Solved, st.Instances, tc.n, len(cfgs))
			}
			if job.cfgs != nil {
				t.Error("terminal job still holds its instances")
			}
		})
	}
}

// TestProgressEventsMatchStructForms: the progress and result payloads
// against the struct forms production last marshalled, over the bound
// values a solve can report — including every non-finite combination, where
// the payload is json.Marshal's quoted error for the first offending field.
func TestProgressEventsMatchStructForms(t *testing.T) {
	vals := []float64{0, 0.25, -1.5, 1e-7, 1e21, 123456.789e3, math.Inf(-1), math.Inf(1), math.NaN(), -math.MaxFloat64, math.MaxFloat64}
	for i, lb := range vals {
		for j, ub := range vals {
			want := legacyPayload(gbdProgress{Gap: ub - lb, Instance: i, Iteration: j, LowerBound: lb, UpperBound: ub})
			if got := appendGBDProgress([]byte("x"), i, j, lb, ub); string(got) != "x"+string(want) {
				t.Errorf("gbd progress lb=%v ub=%v:\n got  %s\n want x%s", lb, ub, got, want)
			}
		}
		want := legacyPayload(dbrProgress{Instance: -i, Iteration: i, Potential: lb})
		if got := appendDBRProgress([]byte("x"), -i, i, lb); string(got) != "x"+string(want) {
			t.Errorf("dbr progress potential=%v:\n got  %s\n want x%s", lb, got, want)
		}
	}
	one := json.RawMessage(`{"index":0,"plan":"dbr","error":"\u003cgone\u003e"}`)
	for _, results := range [][]json.RawMessage{nil, {}, {one}, {one, json.RawMessage(`"json: unsupported value: NaN"`), one}} {
		want := legacyPayload(resultEvent{ID: "job-<1>", Results: results, State: StateFailed})
		if got := encodeResultEvent("job-<1>", results, StateFailed); !bytes.Equal(got, want) {
			t.Errorf("result event of %d results:\n got  %s\n want %s", len(results), got, want)
		}
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
	s := startGateway(t, Options{})
	base := "http://" + s.Addr()
	// Ten instances span two fleet batches of streamChunk.
	resp, created := postJSON(t, base+"/v1/jobs", "", `{"generate":{"count":10,"n":5,"seed":19}}`)
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

	// The finished job's status, through the real handler: the indented
	// document encoding/json writes for the snapshot.
	httpResp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	status, err := io.ReadAll(httpResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := indented(t, s.lookupJob(id).Status()); httpResp.StatusCode != http.StatusOK || !bytes.Equal(status, want) {
		t.Errorf("GET status %d:\n got  %s\n want %s", httpResp.StatusCode, status, want)
	}
	if !bytes.Contains(status, []byte(`"state": "done"`)) || bytes.Count(status, []byte(`"index": `)) != 10 {
		t.Errorf("status document lacks the done state or its 10 results:\n%s", status)
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

// TestUnencodableReplyIs500: a result with a non-finite float has no JSON
// form. game.Config.Validate now bounds every magnitude, so the spec that
// used to solve to +Inf payoffs (profitability 1e308) is a 400 naming the
// bound; a reply that fails to encode all the same must still be a 500
// carrying the error envelope and the request id, and count as an error —
// never a committed 200 with an empty body.
func TestUnencodableReplyIs500(t *testing.T) {
	s, err := New("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// The sync route's own tail, fed a result no accepted spec produces any
	// more, behind the same edge middleware (the swap precedes Serve).
	mux := http.NewServeMux()
	mux.Handle("/", s.http.Handler)
	mux.Handle("/inf", s.edge(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if _, err := encodeSyncReply([]InstanceResult{{Plan: "dbr", Potential: math.Inf(1)}}); err != nil {
			writeEncodeError(w, err)
		}
	})))
	s.http.Handler = mux
	go s.Serve() //nolint:errcheck
	t.Cleanup(func() { _ = s.Drain(10 * time.Second) })

	cfg, err := game.DefaultConfig(game.GenOptions{N: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfg.Orgs {
		cfg.Orgs[i].Profitability = 1e308 // large enough to overflow a payoff
	}
	spec, err := json.Marshal(JobSpec{Games: []GameSpec{{Config: *cfg}}})
	if err != nil {
		t.Fatal(err)
	}
	post := func(path string, spec []byte) (int, string, string) {
		t.Helper()
		resp, err := http.Post("http://"+s.Addr()+path, "application/json", bytes.NewReader(spec))
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
		return resp.StatusCode, body.Error, resp.Header.Get("X-Request-Id")
	}
	for _, body := range [][]byte{spec, []byte(`{"generate":{"count":1,"n":4,"gamma":1e300}}`)} {
		if status, msg, _ := post("/v1/solve", body); status != http.StatusBadRequest || !strings.Contains(msg, "exceeds 1e+15") {
			t.Errorf("out-of-range spec: status %d, error %q; want 400 naming the bound", status, msg)
		}
	}

	errorsBefore := mErrors.Value()
	status, msg, reqID := post("/inf", nil)
	if status != http.StatusInternalServerError {
		t.Errorf("status %d, want 500 (error %s)", status, msg)
	}
	if reqID == "" || !strings.Contains(msg, reqID) || !strings.Contains(msg, "unsupported value") {
		t.Errorf("error %q does not name request %q and the cause", msg, reqID)
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

// FuzzJobDocuments drives a job through its lifecycle with fuzzed names,
// messages, timestamps, bounds and results, and compares every event
// payload and every status document with the encoding/json forms.
func FuzzJobDocuments(f *testing.F) {
	f.Add("job-0badcafe-7", "acme", "", "4bf92f3577b34da6", uint8(2), uint8(3), 0.25, 1.5, -3.75, int64(1_790_000_000_123_456_789))
	f.Add("<id>", "t&t", `bad "thing" \`+"\xff", "", uint8(1), uint8(0), math.Inf(-1), 2.0, math.NaN(), int64(0))
	f.Add("j", "é\u2028", "cancelled", "", uint8(0), uint8(64), 1e-7, 1e21, 1e300, int64(-1))
	f.Fuzz(func(t *testing.T, id, tenant, errMsg, traceID string, stateSel, n uint8, lb, ub, x float64, createdNs int64) {
		state := []JobState{StateCancelled, StateFailed, StateDone}[stateSel%3]
		job := newJob(id, tenant, make([]*game.Config, int(n%80)), fleet.PlanAuto)
		// MarshalJSON refuses years outside [0, 9999]; a job's clock readings
		// are nowhere near either end.
		zones := []*time.Location{time.UTC, time.Local, time.FixedZone("", -(3*3600 + 30*60))}
		job.Created = time.Unix(0, createdNs).In(zones[int(n)%len(zones)])
		want := [][]byte{legacyPayload(legacyState(id, StateQueued, job.instances, "", ""))}
		check := func() {
			st := job.Status()
			got, err := encodeJobStatus(&st)
			if err != nil {
				t.Fatalf("encodeJobStatus: %v", err)
			}
			if ref := indented(t, st); !bytes.Equal(got, ref) {
				t.Fatalf("%s status document:\n got  %s\n want %s", st.State, got, ref)
			}
		}
		check()
		job.setRunning(traceID)
		want = append(want, legacyPayload(legacyState(id, StateRunning, job.instances, "", traceID)))
		var raw []json.RawMessage
		for idx := 0; idx < int(n%80); idx++ {
			var r fleet.Result
			res := InstanceResult{Index: idx, Plan: "dbr", Potential: x, Payoffs: []float64{lb, ub}, SocialWelfare: ub, Error: errMsg}
			switch idx % 3 {
			case 0:
				r.GBD = &gbd.Result{LowerBounds: []float64{lb, x, ub}, UpperBounds: []float64{ub, ub}}
				want = append(want,
					legacyPayload(gbdProgress{Gap: ub - lb, Instance: idx, Iteration: 0, LowerBound: lb, UpperBound: ub}),
					legacyPayload(gbdProgress{Gap: ub - x, Instance: idx, Iteration: 1, LowerBound: x, UpperBound: ub}))
				res.Plan, res.Profile = "pruned", game.Profile{{D: ub, F: 3e9}}
			case 1:
				r.DBR = &dbr.Result{PotentialTrace: []float64{lb, x}}
				want = append(want,
					legacyPayload(dbrProgress{Instance: idx, Iteration: 0, Potential: lb}),
					legacyPayload(dbrProgress{Instance: idx, Iteration: 1, Potential: x}))
			default:
				res = InstanceResult{Index: idx, Plan: tenant, Error: errMsg}
			}
			job.addResult(progressEvents(idx, r), res)
			payload := legacyPayload(res)
			raw = append(raw, payload)
			want = append(want, payload)
			if idx < 3 {
				check()
			}
		}
		job.finish(state, errMsg)
		if state != StateCancelled {
			want = append(want, legacyPayload(resultEvent{ID: id, Results: raw, State: state}))
		}
		want = append(want, legacyPayload(legacyState(id, state, job.instances, errMsg, traceID)))
		check()
		got, _, _ := job.since(0)
		if len(got) != len(want) {
			t.Fatalf("log has %d events, want %d", len(got), len(want))
		}
		for i, ev := range got {
			if !bytes.Equal(ev.Data, want[i]) {
				t.Fatalf("event %d (%s):\n got  %s\n want %s", i, ev.Type, ev.Data, want[i])
			}
		}
	})
}

var sinkBytes []byte

// BenchmarkJobDocuments is what a finished 64-instance job costs in
// documents: its terminal result event and one GET of its status. The
// encoding/json rows are the forms production used before the append
// encoder.
func BenchmarkJobDocuments(b *testing.B) {
	cfg, err := game.DefaultConfig(game.GenOptions{N: 8, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	r := fleet.New(fleet.Options{Plan: fleet.PlanPruned}).Solve(context.Background(), []*game.Config{cfg})[0]
	if r.Err != nil {
		b.Fatal(r.Err)
	}
	job := newJob("job-0badcafe-7", "acme", make([]*game.Config, 64), fleet.PlanAuto)
	job.setRunning("4bf92f3577b34da6")
	for idx := 0; idx < 64; idx++ {
		job.addResult(nil, newInstanceResult(idx, r))
	}
	job.finish(StateDone, "")
	st := job.Status()
	b.Run("status/append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if sinkBytes, err = encodeJobStatus(&st); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("status/encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkBytes = indented(b, st)
		}
	})
	b.Run("result-event/append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkBytes = encodeResultEvent(job.ID, st.Results, StateDone)
		}
	})
	b.Run("result-event/encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkBytes = legacyPayload(resultEvent{ID: job.ID, Results: st.Results, State: StateDone})
		}
	})
}
