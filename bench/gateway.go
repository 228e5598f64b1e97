package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"time"

	"tradefl/internal/core"
	"tradefl/internal/fleet"
	"tradefl/internal/serve"
)

// gatewayLimits are the async spec limits of a default tradefl-server.
var gatewayLimits = serve.Limits{MaxOrgs: 64, MaxInstances: 1024}

// apiClient is one client connection to a gateway (the server child, or the
// in-process server of a traced pass). It is used by one goroutine.
type apiClient struct {
	base   string
	tenant string
	hc     *http.Client
	buf    bytes.Buffer // last response body; valid until the next call
	br     *bufio.Reader
}

func newAPIClient(addr, tenant string) *apiClient {
	return &apiClient{
		base:   "http://" + addr,
		tenant: tenant,
		// Its own transport, so every client goroutine keeps its own
		// keep-alive connection.
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}},
		br: bufio.NewReaderSize(nil, 64<<10),
	}
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response body into c.buf.
func (c *apiClient) do(method, path string, body []byte) (int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("X-Tenant", c.tenant)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// solve is one POST /v1/solve round trip; the reply is left in c.buf.
func (c *apiClient) solve(body []byte) error {
	status, err := c.do(http.MethodPost, "/v1/solve", body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST /v1/solve: status %d: %.200s", status, c.buf.Bytes())
	}
	return nil
}

// jobRun is what a client saw of one async job.
type jobRun struct {
	latency    time.Duration // submit → terminal stream event
	terminalAt time.Time     // client clock, when the terminal event arrived
	instances  int           // instance events on the stream
	bytes      int           // response bytes: submit reply + stream + status
}

var (
	sseEvent   = []byte("event: ")
	sseData    = []byte("data: ")
	evInstance = []byte("instance")
	evState    = []byte("state")
)

// terminal job states as they appear in a state event's compact JSON.
var terminalStates = map[string][]byte{
	"done":      []byte(`"state":"done"`),
	"failed":    []byte(`"state":"failed"`),
	"cancelled": []byte(`"state":"cancelled"`),
}

// runJob submits one job, follows its event stream to the terminal event
// and fetches the final status, which is left in c.buf. A job that does
// not end "done" with every instance streamed and reported is an error.
func (c *apiClient) runJob(body []byte) (jobRun, error) {
	var run jobRun
	submit := time.Now()
	status, err := c.do(http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return run, err
	}
	if status != http.StatusAccepted {
		return run, fmt.Errorf("POST /v1/jobs: status %d: %.200s", status, c.buf.Bytes())
	}
	run.bytes = c.buf.Len()
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(c.buf.Bytes(), &created); err != nil || created.ID == "" {
		return run, fmt.Errorf("POST /v1/jobs: no job id in %.200s", c.buf.Bytes())
	}

	state, err := c.follow(created.ID, &run)
	if err != nil {
		return run, fmt.Errorf("stream %s: %w", created.ID, err)
	}
	run.latency = run.terminalAt.Sub(submit)

	status, err = c.do(http.MethodGet, "/v1/jobs/"+created.ID, nil)
	if err != nil {
		return run, err
	}
	run.bytes += c.buf.Len()
	head := c.buf.Bytes()[:min(c.buf.Len(), 256)]
	switch {
	case status != http.StatusOK:
		return run, fmt.Errorf("GET job %s: status %d", created.ID, status)
	case state != "done" || !bytes.Contains(head, []byte(`"state": "done"`)):
		return run, fmt.Errorf("job %s ended %q, status head %.120s", created.ID, state, head)
	case run.instances != jobInstances:
		return run, fmt.Errorf("job %s streamed %d instances, want %d", created.ID, run.instances, jobInstances)
	}
	return run, nil
}

// follow reads a job's SSE stream to its end, counting instance events and
// noting when the terminal state event arrived. Only line prefixes are
// inspected, so the generator spends little CPU beside the server's.
func (c *apiClient) follow(id string, run *jobRun) (state string, err error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return "", err
	}
	req.Header.Set("X-Tenant", c.tenant)
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	c.br.Reset(resp.Body)
	inState, lineStart := false, true
	for {
		// A result event's data line outgrows the buffer; ReadSlice then
		// returns it in pieces, and only the first piece starts a line.
		chunk, rerr := c.br.ReadSlice('\n')
		run.bytes += len(chunk)
		if lineStart {
			switch {
			case bytes.HasPrefix(chunk, sseEvent):
				kind := chunk[len(sseEvent):]
				inState = bytes.HasPrefix(kind, evState)
				if bytes.HasPrefix(kind, evInstance) {
					run.instances++
				}
			case inState && bytes.HasPrefix(chunk, sseData):
				for name, marker := range terminalStates {
					if bytes.Contains(chunk, marker) {
						state, run.terminalAt = name, time.Now()
					}
				}
			}
		}
		lineStart = rerr == nil
		switch {
		case rerr == nil, errors.Is(rerr, bufio.ErrBufferFull):
		case errors.Is(rerr, io.EOF):
			if state == "" {
				return "", errors.New("stream ended without a terminal state event")
			}
			return state, nil
		default:
			return state, rerr
		}
	}
}

// solveReply and jobStatus are the reply shapes the checker decodes.
type solveReply struct {
	Results []serve.InstanceResult `json:"results"`
}

type jobStatus struct {
	State     string                 `json:"state"`
	CreatedAt time.Time              `json:"createdAt"`
	StartedAt time.Time              `json:"startedAt"`
	DoneAt    time.Time              `json:"doneAt"`
	Results   []serve.InstanceResult `json:"results"`
}

// checkAgainstBatch is the output contract of the gateway (the one
// scripts/servegate gates in CI): results must equal core.RunBatch on the
// configs the request body parses to, field for field — plan, profile,
// potential, payoffs, welfare. JSON round-trips float64 exactly, so
// equality is exact.
func checkAgainstBatch(ctx context.Context, body []byte, got []serve.InstanceResult) error {
	cfgs, plan, err := serve.ParseJobSpec(body, gatewayLimits)
	if err != nil {
		return fmt.Errorf("reference parse: %w", err)
	}
	want := core.RunBatch(ctx, cfgs, fleet.Options{Plan: plan})
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	sort.Slice(got, func(i, j int) bool { return got[i].Index < got[j].Index })
	for i, w := range want {
		g := got[i]
		switch {
		case w.Fleet.Err != nil:
			return fmt.Errorf("instance %d: reference solve failed: %w", i, w.Fleet.Err)
		case g.Error != "":
			return fmt.Errorf("instance %d: gateway error %q", i, g.Error)
		case g.Index != i,
			g.Plan != w.Fleet.Plan.String(),
			g.Potential != w.Fleet.Potential,
			g.SocialWelfare != w.SocialWelfare,
			!reflect.DeepEqual(g.Payoffs, w.Payoffs),
			!reflect.DeepEqual(g.Profile, w.Fleet.Profile):
			return fmt.Errorf("instance %d differs from core.RunBatch:\n got  %+v\n want plan=%s potential=%v welfare=%v payoffs=%v profile=%v",
				i, g, w.Fleet.Plan, w.Fleet.Potential, w.SocialWelfare, w.Payoffs, w.Fleet.Profile)
		}
	}
	return nil
}
