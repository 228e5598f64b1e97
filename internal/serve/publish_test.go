package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"tradefl/internal/fleet"
	"tradefl/internal/game"
)

// addResult records one solved instance: a chunk of one, which is how the
// oracle tests in encode_test.go publish.
func (j *Job) addResult(progress []Event, res InstanceResult) {
	j.addResults([][]Event{progress}, []InstanceResult{res})
}

// closed reports whether a wake channel has fired.
func closed(wake <-chan struct{}) bool {
	select {
	case <-wake:
		return true
	default:
		return false
	}
}

// framedLog renders events as the stream handler frames them, and where
// each event starts.
func framedLog(events []Event) (framed []byte, offsets []int) {
	var buf bytes.Buffer
	for i, ev := range events {
		offsets = append(offsets, buf.Len())
		fmt.Fprintf(&buf, "id: %d\nevent: %s\ndata: %s\n\n", i, ev.Type, ev.Data)
	}
	return buf.Bytes(), append(offsets, buf.Len())
}

// TestChunkPublishKeepsTheLog: publishing a solved chunk at once leaves the
// log — order, payload bytes, results — that publishing its instances one
// by one leaves, shows a waiting stream the whole chunk after one wake, and
// a Last-Event-ID resume from anywhere inside the chunk gets every later
// event exactly once.
func TestChunkPublishKeepsTheLog(t *testing.T) {
	_, results := encodeFixtures(t)
	var (
		solved   []InstanceResult
		progress [][]Event
	)
	for idx, r := range results {
		solved = append(solved, newInstanceResult(idx, r))
		progress = append(progress, progressEvents(idx, r))
	}
	single := newJob("job-0badcafe-1", "acme", make([]*game.Config, len(results)), fleet.PlanAuto)
	chunked := newJob("job-0badcafe-1", "acme", make([]*game.Config, len(results)), fleet.PlanAuto)
	for _, j := range []*Job{single, chunked} {
		j.setRunning("4bf92f3577b34da6")
	}
	for i := range solved {
		single.addResult(progress[i], solved[i])
	}
	before, wake, _ := chunked.since(2)
	if before != nil || wake == nil {
		t.Fatalf("a running job with nothing solved has events pending: %v", before)
	}
	chunked.addResults(progress, solved)
	if !closed(wake) {
		t.Fatal("publishing a chunk did not wake the waiting stream")
	}
	want, _, _ := single.since(0)
	got, _, _ := chunked.since(2)
	if len(got) != len(want)-2 {
		t.Fatalf("one wake showed %d events, want the chunk's %d", len(got), len(want)-2)
	}
	if _, again, _ := chunked.since(len(want)); again == nil || closed(again) {
		t.Error("the chunk left a second wake pending")
	}
	for _, j := range []*Job{single, chunked} {
		j.finish(StateFailed, "one or more instances failed")
	}
	want, _, _ = single.since(0)
	got, _, _ = chunked.since(0)
	if len(got) != len(want) {
		t.Fatalf("chunked log has %d events, one-by-one %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Errorf("event %d: chunked %s %s, one-by-one %s %s", i, got[i].Type, got[i].Data, want[i].Type, want[i].Data)
		}
	}
	a, b := single.Status(), chunked.Status()
	if len(a.Results) != len(b.Results) {
		t.Fatalf("results: %d vs %d", len(b.Results), len(a.Results))
	}
	for i := range a.Results {
		if !bytes.Equal(a.Results[i], b.Results[i]) {
			t.Errorf("result %d: chunked %s, one-by-one %s", i, b.Results[i], a.Results[i])
		}
	}

	s := testServer(t, Options{})
	s.jobs[chunked.ID] = chunked
	srv := httptest.NewServer(s.handler())
	defer srv.Close()
	framed, offsets := framedLog(want)
	for last := -1; last < len(want); last++ {
		if got := readStream(t, srv.URL, chunked.ID, last); !bytes.Equal(got, framed[offsets[last+1]:]) {
			t.Errorf("resume after event %d:\n got  %s\n want %s", last, got, framed[offsets[last+1]:])
		}
	}
}

// TestStreamLastEventIDPastTheLog: an id the log has not reached — up to
// the last int, whose successor wraps below zero — follows the job in
// silence and ends with it; it must not reach the log as a negative index.
func TestStreamLastEventIDPastTheLog(t *testing.T) {
	s := testServer(t, Options{DumpWriter: io.Discard})
	srv := httptest.NewServer(s.handler())
	defer srv.Close()
	panics := mPanics.Value()
	for _, id := range []string{"9223372036854775807", "9223372036854775806", "1000000"} {
		job := testJob(t, s, "acme", 1)
		s.jobs[job.ID] = job
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+job.ID+"/stream", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Last-Event-ID", id)
		clients := mStreamClients.Value()
		type reply struct {
			status int
			body   []byte
			err    error
		}
		done := make(chan reply, 1)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				done <- reply{err: err}
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			done <- reply{resp.StatusCode, body, err}
		}()
		// The stream is attached and waiting before the job ends under it.
		for deadline := time.Now().Add(10 * time.Second); mStreamClients.Value() == clients && len(done) == 0; {
			if time.Now().After(deadline) {
				t.Fatalf("Last-Event-ID %s: stream never attached", id)
			}
			time.Sleep(time.Millisecond)
		}
		job.Cancel()
		r := <-done
		if r.err != nil || r.status != http.StatusOK || len(r.body) != 0 {
			t.Errorf("Last-Event-ID %s: status %d, body %q, err %v; want 200 and a clean empty end", id, r.status, r.body, r.err)
		}
		// Replaying the finished job from the same id ends at once, as cleanly.
		if got := readStream(t, srv.URL, job.ID, -1); len(got) == 0 {
			t.Errorf("job %s logged nothing", job.ID)
		}
		req2, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+job.ID+"/stream", nil)
		req2.Header.Set("Last-Event-ID", id)
		resp, err := http.DefaultClient.Do(req2)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || len(body) != 0 {
			t.Errorf("Last-Event-ID %s on the finished job: status %d, body %q, err %v", id, resp.StatusCode, body, err)
		}
	}
	if got := mPanics.Value() - panics; got != 0 {
		t.Errorf("tradefl_serve_panics_total moved by %d", got)
	}
}

// TestBodiesDeclareTheirLength: every document writeBody sends — a sync
// reply, a terminal status, an error envelope, /healthz — carries its
// Content-Length and so is not sent chunked.
func TestBodiesDeclareTheirLength(t *testing.T) {
	s := startGateway(t, Options{})
	base := "http://" + s.Addr()
	_, created := postJSON(t, base+"/v1/jobs", "", `{"generate":{"count":9,"n":8,"seed":3}}`)
	id, _ := created["id"].(string)
	awaitJob(t, base, id)
	for _, tc := range []struct {
		method, path, body string
		status             int
	}{
		{http.MethodPost, "/v1/solve", `{"generate":{"count":2,"n":4,"seed":7}}`, http.StatusOK},
		{http.MethodGet, "/v1/jobs/" + id, "", http.StatusOK},
		{http.MethodGet, "/v1/jobs/job-nope-1", "", http.StatusNotFound},
		{http.MethodPost, "/v1/jobs", `{`, http.StatusBadRequest},
		{http.MethodGet, "/healthz", "", http.StatusOK},
	} {
		req, err := http.NewRequest(tc.method, base+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != tc.status {
			t.Fatalf("%s %s: status %d, err %v", tc.method, tc.path, resp.StatusCode, err)
		}
		if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s %s: Content-Length %q, Transfer-Encoding %v for a %d-byte body", tc.method, tc.path, got, resp.TransferEncoding, len(body))
		}
	}
}
