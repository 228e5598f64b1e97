package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tradefl/internal/game"
)

// startGateway boots a real gateway on a loopback port and drains it when
// the test ends.
func startGateway(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := New("127.0.0.1:0", opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	go s.Serve() //nolint:errcheck
	t.Cleanup(func() { _ = s.Drain(10 * time.Second) })
	return s
}

// postJSON submits body for tenant and returns the decoded response.
func postJSON(t *testing.T, url, tenant, body string) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp, decoded
}

// awaitJob polls the status endpoint until the job is terminal.
func awaitJob(t *testing.T, base, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET job: %v", err)
		}
		var st map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode status: %v", err)
		}
		resp.Body.Close()
		switch st["state"] {
		case string(StateDone), string(StateFailed), string(StateCancelled):
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s not terminal within deadline", id)
	return nil
}

func TestGatewayJobLifecycle(t *testing.T) {
	s := startGateway(t, Options{})
	base := "http://" + s.Addr()

	resp, created := postJSON(t, base+"/v1/jobs", "acme", `{"generate":{"count":2,"n":4,"seed":7}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: status %d, want 202 (%v)", resp.StatusCode, created)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("create: missing X-Request-Id header")
	}
	id, _ := created["id"].(string)
	if id == "" {
		t.Fatalf("create: no job id in %v", created)
	}
	if created["tenant"] != "acme" || created["state"] != string(StateQueued) {
		t.Errorf("create: tenant/state = %v/%v, want acme/queued", created["tenant"], created["state"])
	}

	st := awaitJob(t, base, id)
	if st["state"] != string(StateDone) {
		t.Fatalf("state = %v, want done (error: %v)", st["state"], st["error"])
	}
	results, _ := st["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("results = %d entries, want 2", len(results))
	}
	first, _ := results[0].(map[string]any)
	if pay, _ := first["payoffs"].([]any); len(pay) != 4 {
		t.Errorf("instance 0 payoffs = %v, want 4 entries", first["payoffs"])
	}
	if conv, _ := first["converged"].(bool); !conv {
		t.Errorf("instance 0 did not converge: %v", first)
	}
}

func TestGatewayJobNotFoundAnd404Shape(t *testing.T) {
	s := startGateway(t, Options{})
	base := "http://" + s.Addr()
	resp, err := http.Get(base + "/v1/jobs/job-nope-1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	var body errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
		t.Fatalf("404 body not an error envelope: %v / %v", body, err)
	}
}

func TestGatewayBadSpecRejected(t *testing.T) {
	s := startGateway(t, Options{})
	base := "http://" + s.Addr()
	for _, body := range []string{
		`{`,                                 // malformed JSON
		`{}`,                                // neither games nor generate
		`{"generate":{"count":0}}`,          // empty generation
		`{"generate":{"count":2000}}`,       // over MaxInstances
		`{"generate":{"count":1,"n":9999}}`, // over MaxOrgs
		`{"generate":{"count":1,"n":-1}}`,   // would panic sizing the instance
		`{"generate":{"count":1,"n":4,"cpuSteps":2000000000}}`, // would allocate 16 GB per organization
		`{"generate":{"count":1,"n":4,"cpuSteps":-1}}`,
		`{"generate":{"count":1,"n":4,"mu":-1}}`,    // σ = μ/5 < 0: was admitted and generated ρ ≡ 0
		`{"generate":{"count":1,"n":4,"mu":-1e-9}}`, // canonical form and fallback alike
		`{ "generate": {"count":1,"n":4,"mu":1.5} }`,
		`{"generate":{"count":1},"plan":"warp"}`,
		`{"games":[{"orgs":[]}]}`, // fails game.Config.Validate
	} {
		resp, decoded := postJSON(t, base+"/v1/jobs", "", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %s: status %d, want 400 (%v)", body, resp.StatusCode, decoded)
		}
	}
}

// TestGenerateMuRange: the ends of the paper's ρ range are admitted, and a
// GenSpec that did not come through JSON cannot smuggle in a non-finite μ
// or γ.
func TestGenerateMuRange(t *testing.T) {
	for _, body := range []string{`{"generate":{"count":1,"n":4,"mu":1}}`, `{"generate":{"count":1,"n":4,"mu":0}}`, `{"generate":{"count":1,"n":4,"mu":0.05,"gamma":1e-8}}`} {
		if _, _, err := ParseJobSpec([]byte(body), Limits{}); err != nil {
			t.Errorf("spec %s rejected: %v", body, err)
		}
	}
	for _, g := range []GenSpec{
		{Count: 1, N: 4, Mu: math.NaN()}, {Count: 1, N: 4, Mu: math.Inf(1)},
		{Count: 1, N: 4, Gamma: math.NaN()}, {Count: 1, N: 4, Gamma: math.Inf(-1)},
	} {
		if _, err := g.configs(Limits{}); err == nil {
			t.Errorf("generate %+v admitted", g)
		}
	}
}

func TestGatewayBodyTooLarge(t *testing.T) {
	s := startGateway(t, Options{})
	base := "http://" + s.Addr()
	before := mTooLarge.Value()
	big := `{"pad":"` + strings.Repeat("x", maxBody) + `"}`
	resp, decoded := postJSON(t, base+"/v1/jobs", "", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (%v)", resp.StatusCode, decoded)
	}
	if got := mTooLarge.Value() - before; got != 1 {
		t.Errorf("tradefl_serve_body_too_large_total delta = %d, want 1", got)
	}
}

func TestGatewayRateQuotaExhaustion(t *testing.T) {
	// A slow refill makes the token bucket deterministic: at 0.25
	// instances/s the bucket holds one instance, the first job drains it,
	// and the second must be rejected regardless of how fast the first one
	// solves (a token takes four seconds to come back).
	s := startGateway(t, Options{TenantRate: 0.25})
	base := "http://" + s.Addr()

	before := mRejectRate.Value()
	resp, decoded := postJSON(t, base+"/v1/jobs", "greedy", `{"generate":{"count":1,"n":4,"seed":1}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first job: status %d, want 202 (%v)", resp.StatusCode, decoded)
	}
	resp, decoded = postJSON(t, base+"/v1/jobs", "greedy", `{"generate":{"count":1,"n":4,"seed":2}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second job: status %d, want 429 (%v)", resp.StatusCode, decoded)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After header")
	}
	if got := mRejectRate.Value() - before; got != 1 {
		t.Errorf("tradefl_serve_rejected_rate_total delta = %d, want 1", got)
	}
	// A job larger than the bucket can never be admitted.
	resp, decoded = postJSON(t, base+"/v1/jobs", "patient", `{"generate":{"count":2,"n":4,"seed":2}}`)
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(fmt.Sprint(decoded["error"]), "burst capacity 1") {
		t.Fatalf("over-burst job: status %d, want 429 naming the burst capacity (%v)", resp.StatusCode, decoded)
	}

	// Tenant isolation: the greedy tenant's empty bucket must not affect
	// anyone else.
	resp, decoded = postJSON(t, base+"/v1/jobs", "frugal", `{"generate":{"count":1,"n":4,"seed":3}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant: status %d, want 202 (%v)", resp.StatusCode, decoded)
	}
	// The sync path shares the same bucket: the greedy tenant is rejected
	// there too.
	resp, decoded = postJSON(t, base+"/v1/solve", "greedy", `{"generate":{"count":1,"n":4,"seed":4}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("greedy sync solve: status %d, want 429 (%v)", resp.StatusCode, decoded)
	}
}

// TestTenantRateMustBeFinitePositive: a rate that is NaN or +Inf would
// admit everything and a negative one nothing, so New refuses them; zero
// still means the default.
func TestTenantRateMustBeFinitePositive(t *testing.T) {
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -math.SmallestNonzeroFloat64} {
		if s, err := New("127.0.0.1:0", Options{TenantRate: rate}); err == nil {
			_ = s.Drain(time.Second)
			t.Errorf("TenantRate %v accepted", rate)
		}
	}
	s := startGateway(t, Options{})
	if s.opts.TenantRate != 64 || s.burst() != 256 {
		t.Errorf("default rate %v, burst %v; want 64 and 256", s.opts.TenantRate, s.burst())
	}
}

// testServer builds a Server with no runners, so admission behavior can be
// asserted without racing job execution.
func testServer(t *testing.T, opts Options) *Server {
	t.Helper()
	opts = opts.withDefaults()
	return &Server{
		opts:    opts,
		queue:   make(chan *Job, opts.QueueDepth),
		jobs:    make(map[string]*Job),
		tenants: make(map[string]*tenantState),
		stop:    make(chan struct{}),
	}
}

func testJob(t *testing.T, s *Server, tenant string, instances int) *Job {
	t.Helper()
	cfgs := make([]*game.Config, instances)
	for i := range cfgs {
		cfg, err := game.DefaultConfig(game.GenOptions{N: 4, Seed: int64(i + 1)})
		if err != nil {
			t.Fatalf("DefaultConfig: %v", err)
		}
		cfgs[i] = cfg
	}
	return newJob(s.newJobID(), tenant, cfgs, 0)
}

func TestGatewayQueueOverflow(t *testing.T) {
	s := testServer(t, Options{QueueDepth: 1})
	before := mRejectQueue.Value()
	if aerr := s.admitJob(testJob(t, s, "a", 1)); aerr != nil {
		t.Fatalf("first admit: %v", aerr)
	}
	aerr := s.admitJob(testJob(t, s, "b", 1))
	if aerr == nil || aerr.status != http.StatusTooManyRequests {
		t.Fatalf("second admit = %v, want 429", aerr)
	}
	if !strings.Contains(aerr.reason, "queue full") {
		t.Errorf("reason = %q, want queue-full", aerr.reason)
	}
	if got := mRejectQueue.Value() - before; got != 1 {
		t.Errorf("tradefl_serve_rejected_queue_total delta = %d, want 1", got)
	}
}

func TestGatewayConcurrencyQuota(t *testing.T) {
	s := testServer(t, Options{TenantActive: 2, QueueDepth: 16})
	before := mRejectConcurrency.Value()
	for i := 0; i < 2; i++ {
		if aerr := s.admitJob(testJob(t, s, "a", 1)); aerr != nil {
			t.Fatalf("admit %d: %v", i, aerr)
		}
	}
	aerr := s.admitJob(testJob(t, s, "a", 1))
	if aerr == nil || aerr.status != http.StatusTooManyRequests {
		t.Fatalf("third admit = %v, want 429", aerr)
	}
	if got := mRejectConcurrency.Value() - before; got != 1 {
		t.Errorf("tradefl_serve_rejected_concurrency_total delta = %d, want 1", got)
	}
	// Another tenant is unaffected, and releasing a slot re-opens the quota.
	if aerr := s.admitJob(testJob(t, s, "b", 1)); aerr != nil {
		t.Fatalf("tenant b admit: %v", aerr)
	}
	s.release("a")
	if aerr := s.admitJob(testJob(t, s, "a", 1)); aerr != nil {
		t.Fatalf("admit after release: %v", aerr)
	}
}

func TestGatewayDrainingRejects(t *testing.T) {
	s := testServer(t, Options{})
	s.draining = true
	before := mRejectDraining.Value()
	aerr := s.admitJob(testJob(t, s, "a", 1))
	if aerr == nil || aerr.status != http.StatusServiceUnavailable {
		t.Fatalf("admit while draining = %v, want 503", aerr)
	}
	if aerr := s.admitTokens("a", 1); aerr == nil || aerr.status != http.StatusServiceUnavailable {
		t.Fatalf("sync admit while draining = %v, want 503", aerr)
	}
	if got := mRejectDraining.Value() - before; got != 2 {
		t.Errorf("tradefl_serve_rejected_draining_total delta = %d, want 2", got)
	}
}

func TestGatewayCancelQueuedJob(t *testing.T) {
	s := testServer(t, Options{})
	job := testJob(t, s, "a", 1)
	if aerr := s.admitJob(job); aerr != nil {
		t.Fatalf("admit: %v", aerr)
	}
	if !job.Cancel() {
		t.Fatal("Cancel returned false for a queued job")
	}
	if job.State() != StateCancelled {
		t.Fatalf("state = %s, want cancelled", job.State())
	}
	if job.Cancel() {
		t.Error("second Cancel returned true")
	}
	// The runner must skip a cancelled job without resurrecting it.
	s.runJob(job)
	if job.State() != StateCancelled {
		t.Fatalf("state after runJob = %s, want cancelled", job.State())
	}
	if st := job.Status(); st.Solved != 0 {
		t.Errorf("cancelled job solved %d instances, want 0", st.Solved)
	}
}

// TestJobSecondsCountQueueWait: tradefl_serve_job_seconds times a job
// from admission to completion, so a job queued behind a busy runner
// observes at least its queue wait, not only its run.
func TestJobSecondsCountQueueWait(t *testing.T) {
	s := testServer(t, Options{})
	job := testJob(t, s, "a", 1)
	if aerr := s.admitJob(job); aerr != nil {
		t.Fatalf("admit: %v", aerr)
	}
	count0, sum0 := mJobSec.Count(), mJobSec.Sum()
	time.Sleep(20 * time.Millisecond) // the only runner is busy elsewhere
	s.runJob(<-s.queue)
	st := job.Status()
	if st.State != StateDone || st.StartedAt == nil {
		t.Fatalf("job state %s, started %v: want done", st.State, st.StartedAt)
	}
	wait := st.StartedAt.Sub(job.Created)
	if wait < 20*time.Millisecond {
		t.Fatalf("queue wait %v, want at least the runner's 20ms", wait)
	}
	if n, sum := mJobSec.Count()-count0, mJobSec.Sum()-sum0; n != 1 || sum < wait.Seconds() {
		t.Errorf("tradefl_serve_job_seconds observed %d jobs summing %gs, want 1 job of at least its %v queue wait", n, sum, wait)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing flight dumps
// written from handler goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestGatewayPanicRecovery(t *testing.T) {
	dump := &syncBuffer{}
	s, err := New("127.0.0.1:0", Options{DumpWriter: dump})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Route a panicking handler through the same edge middleware the real
	// routes use, keeping the rest of the route table intact. The handler
	// swap happens before Serve starts so the server only ever reads it.
	normal := s.http.Handler
	mux := http.NewServeMux()
	mux.Handle("/", normal)
	mux.Handle("/boom", s.edge(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})))
	s.http.Handler = mux
	go s.Serve() //nolint:errcheck
	t.Cleanup(func() { _ = s.Drain(10 * time.Second) })
	base := "http://" + s.Addr()

	before := mPanics.Value()
	resp, err := http.Get(base + "/boom")
	if err != nil {
		t.Fatalf("GET /boom: %v", err)
	}
	var body errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode 500 body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	reqID := resp.Header.Get("X-Request-Id")
	if reqID == "" {
		t.Error("500 missing X-Request-Id")
	}
	if !strings.Contains(body.Error, reqID) {
		t.Errorf("500 body %q does not reference request ID %q", body.Error, reqID)
	}
	if got := mPanics.Value() - before; got != 1 {
		t.Errorf("tradefl_serve_panics_total delta = %d, want 1", got)
	}
	if d := dump.String(); !strings.Contains(d, "kaboom") {
		t.Errorf("flight dump does not mention the panic: %q", d)
	}

	// The gateway survives the panic: the next request succeeds.
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz after panic: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic = %d, want 200", resp.StatusCode)
	}
}

func TestGatewayDrainCompletesInFlightJobs(t *testing.T) {
	s := startGateway(t, Options{Runners: 2})
	base := "http://" + s.Addr()

	ids := make([]string, 4)
	for i := range ids {
		resp, created := postJSON(t, base+"/v1/jobs", fmt.Sprintf("t%d", i),
			fmt.Sprintf(`{"generate":{"count":2,"n":4,"seed":%d}}`, 100+i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: status %d (%v)", i, resp.StatusCode, created)
		}
		ids[i], _ = created["id"].(string)
	}

	// Drain immediately: some jobs are still queued, some running. All of
	// them must complete — an admitted job is a promise.
	if err := s.Drain(30 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for i, id := range ids {
		job := s.lookupJob(id)
		if job == nil {
			t.Fatalf("job %d evicted during drain", i)
		}
		if st := job.Status(); st.State != StateDone || len(st.Results) != 2 {
			t.Errorf("job %d after drain: state=%s results=%d, want done/2 (error: %s)",
				i, st.State, len(st.Results), st.Error)
		}
	}

	// The listener is closed: new connections fail.
	if resp, err := http.Get(base + "/healthz"); err == nil {
		resp.Body.Close()
		t.Error("healthz after drain succeeded, want connection error")
	}
}

func TestGatewayStreamDeliversProgressAndResult(t *testing.T) {
	s := startGateway(t, Options{})
	base := "http://" + s.Addr()

	// Ten instances span two fleet batches of streamChunk.
	resp, created := postJSON(t, base+"/v1/jobs", "", `{"generate":{"count":10,"n":4,"seed":11}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: %d (%v)", resp.StatusCode, created)
	}
	id, _ := created["id"].(string)

	stream, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q", ct)
	}

	// The stream ends on its own once the job is terminal, so reading to
	// EOF is the synchronization.
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(stream.Body); err != nil {
		t.Fatalf("read stream: %v", err)
	}
	text := raw.String()
	counts := map[string]int{}
	for _, line := range strings.Split(text, "\n") {
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			counts[name]++
		}
	}
	if counts["progress"] == 0 {
		t.Errorf("no progress events in stream:\n%s", text)
	}
	if counts["instance"] != 10 {
		t.Errorf("instance events = %d, want 10", counts["instance"])
	}
	if counts["result"] != 1 {
		t.Errorf("result events = %d, want 1", counts["result"])
	}
	if counts["state"] < 2 {
		t.Errorf("state events = %d, want >= 2 (queued + terminal)", counts["state"])
	}
	if !strings.Contains(text, `"state":"done"`) {
		t.Errorf("stream never reported done:\n%s", text)
	}
}

// TestRequestSecondsSkipStreams pins what tradefl_serve_request_seconds
// measures: every gateway request except the SSE stream, whose wall time is
// the followed job's lifetime, not request latency.
func TestRequestSecondsSkipStreams(t *testing.T) {
	s := startGateway(t, Options{})
	base := "http://" + s.Addr()
	requests, observed := mRequests.Value(), mRequestSec.Count()

	resp, created := postJSON(t, base+"/v1/jobs", "", `{"generate":{"count":4,"n":4,"seed":5}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: %d (%v)", resp.StatusCode, created)
	}
	id, _ := created["id"].(string)
	stream, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	if _, err := io.Copy(io.Discard, stream.Body); err != nil {
		t.Fatalf("read stream: %v", err)
	}
	stream.Body.Close()
	if st := awaitJob(t, base, id); st["state"] != string(StateDone) {
		t.Fatalf("state = %v, want done", st["state"])
	}
	// Drain waits for every handler to return, so each edge observation
	// has landed before the counts are read.
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// create + stream + one status poll (the job is terminal once its
	// stream ends).
	if got := mRequests.Value() - requests; got != 3 {
		t.Fatalf("requests = %d, want 3", got)
	}
	if got := mRequestSec.Count() - observed; got != 2 {
		t.Errorf("request_seconds observations = %d, want 2 (the stream excluded)", got)
	}
}

func TestGatewaySyncSolveBounds(t *testing.T) {
	s := startGateway(t, Options{})
	base := "http://" + s.Addr()
	resp, decoded := postJSON(t, base+"/v1/solve", "", `{"generate":{"count":9,"n":4,"seed":1}}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("over-instances sync: %d, want 422 (%v)", resp.StatusCode, decoded)
	}
	resp, decoded = postJSON(t, base+"/v1/solve", "", `{"generate":{"count":1,"n":13,"seed":1}}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("over-N sync: %d, want 422 (%v)", resp.StatusCode, decoded)
	}
	for _, spec := range []string{`{"generate":{"count":8,"n":4,"seed":1}}`, `{"generate":{"count":1,"n":12,"seed":1}}`} {
		resp, decoded = postJSON(t, base+"/v1/solve", "", spec)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("in-bounds sync %s: %d, want 200 (%v)", spec, resp.StatusCode, decoded)
		}
	}
	if results, _ := decoded["results"].([]any); len(results) != 1 {
		t.Fatalf("sync results = %v, want 1 entry", decoded["results"])
	}
}

// TestGatewayEmitsSolveEvaluation: the payoffs, welfare and potential on
// the wire are the game's own evaluation of the profile beside them, bit
// for bit, under either solver — the gateway forwards what the solve
// computed once.
func TestGatewayEmitsSolveEvaluation(t *testing.T) {
	s := startGateway(t, Options{})
	cfg, err := game.DefaultConfig(game.GenOptions{N: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []string{"dbr", "pruned"} {
		spec, err := json.Marshal(JobSpec{Games: []GameSpec{{Config: *cfg}}, Plan: plan})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post("http://"+s.Addr()+"/v1/solve", "application/json", bytes.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		var reply struct{ Results []InstanceResult }
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || len(reply.Results) != 1 || reply.Results[0].Error != "" {
			t.Fatalf("plan %s: status %d, decode err %v, reply %+v", plan, resp.StatusCode, err, reply)
		}
		r := reply.Results[0]
		if r.Plan != plan || !reflect.DeepEqual(r.Payoffs, cfg.Payoffs(r.Profile)) ||
			r.SocialWelfare != cfg.SocialWelfare(r.Profile) || r.Potential != cfg.Potential(r.Profile) {
			t.Errorf("plan %s: reply %+v is not the evaluation of its profile: payoffs %v welfare %v potential %v",
				plan, r, cfg.Payoffs(r.Profile), cfg.SocialWelfare(r.Profile), cfg.Potential(r.Profile))
		}
	}
}

// TestGatewaySolvesPersonalizedGame: a small game with the personalization
// extension and no plan must come back solved (by DBR), not as a failed
// instance carrying CGBD's rejection.
func TestGatewaySolvesPersonalizedGame(t *testing.T) {
	s := startGateway(t, Options{})
	cfg, err := game.DefaultConfig(game.GenOptions{N: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Personal = game.Personalization{Alpha: 0.3, LocalBoost: 1.5}
	spec, err := json.Marshal(JobSpec{Games: []GameSpec{{Config: *cfg}}})
	if err != nil {
		t.Fatal(err)
	}
	resp, decoded := postJSON(t, "http://"+s.Addr()+"/v1/solve", "", string(spec))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%v)", resp.StatusCode, decoded)
	}
	results, _ := decoded["results"].([]any)
	if len(results) != 1 {
		t.Fatalf("results = %v, want 1 entry", decoded["results"])
	}
	res, _ := results[0].(map[string]any)
	profile, _ := res["profile"].([]any)
	if res["error"] != nil || res["plan"] != "dbr" || len(profile) != 6 {
		t.Fatalf("personalized game under plan=auto: %v", res)
	}
}

func TestGatewayHealthz(t *testing.T) {
	s := startGateway(t, Options{})
	resp, err := http.Get("http://" + s.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
}
