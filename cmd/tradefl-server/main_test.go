package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"tradefl/internal/core"
	"tradefl/internal/fleet"
	"tradefl/internal/game"
	"tradefl/internal/obs"
	"tradefl/internal/serve"
)

// TestFlagSet pins tradefl-server's flags: its own and the shared
// observability ones. -h returns flag.ErrHelp, which cli.Main exits 0 on.
func TestFlagSet(t *testing.T) {
	c := command()
	c.Flags.SetOutput(io.Discard)
	if err := c.Exec([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	var got []string
	c.Flags.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{
		"diag-addr", "listen", "log-format", "log-level",
		"tenant-rate", "trace-out",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags = %v\nwant    %v", got, want)
	}
}

// TestIncrementalFlagIsGone: the switch of the solvers' old second
// evaluation path, and every setting that had one value in use (now a
// constant), are unknown flags.
func TestIncrementalFlagIsGone(t *testing.T) {
	for _, name := range []string{
		"incremental", "runners", "queue", "tenant-active", "plan", "workers",
		"job-timeout", "drain-timeout", "max-orgs", "max-instances",
	} {
		c := command()
		c.Flags.SetOutput(io.Discard)
		err := c.Exec([]string{"-" + name, "1"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -"+name) {
			t.Errorf("-%s 1: err = %v, want an unknown-flag error", name, err)
		}
	}
}

// TestTenantRateMustBeFinitePositive: a -tenant-rate that would switch
// admission off (NaN, +Inf) or reject everything (negative) fails the
// command, which cli.Main turns into a nonzero exit.
func TestTenantRateMustBeFinitePositive(t *testing.T) {
	for _, rate := range []string{"NaN", "+Inf", "-Inf", "-1"} {
		c := command()
		c.Flags.SetOutput(io.Discard)
		err := c.Exec([]string{"-listen", "127.0.0.1:0", "-tenant-rate", rate})
		if err == nil || !strings.Contains(err.Error(), "tenant rate") {
			t.Errorf("-tenant-rate %s: err = %v, want a tenant-rate error", rate, err)
		}
	}
}

// TestRunSolvesTracesAndDrains runs the command as a deployment would, with
// diagnostics and a trace file: a generated job's streamed and final
// results equal core.RunBatch's field for field, /tracez holds one trace
// through the gateway, the fleet engine and the CGBD solver, /flightz
// answers, and SIGTERM drains the gateway so run returns nil and the trace
// file is written.
func TestRunSolvesTracesAndDrains(t *testing.T) {
	t.Cleanup(func() {
		obs.EnableTracing(false)
		obs.ResetTraces()
	})
	listen, diag := freeAddr(t), freeAddr(t)
	traceOut := filepath.Join(t.TempDir(), "trace.json")
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", listen, "-diag-addr", diag, "-trace-out", traceOut, "-log-level", "error"})
	}()
	base := "http://" + listen
	waitHealthy(t, base, done)

	const count, n, seed = 3, 4, 41
	cfgs := make([]*game.Config, count)
	for i := range cfgs {
		cfg, err := game.DefaultConfig(game.GenOptions{N: n, Seed: seed + int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		cfgs[i] = cfg
	}
	refs := core.RunBatch(context.Background(), cfgs, fleet.Options{})

	spec := fmt.Sprintf(`{"generate":{"count":%d,"n":%d,"seed":%d}}`, count, n, seed)
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var created jobStatus
	err = json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || created.ID == "" {
		t.Fatalf("create job: status %d, id %q, err %v", resp.StatusCode, created.ID, err)
	}
	streamed, progress, state := followStream(t, base, created.ID)
	if state != "done" || progress == 0 || len(streamed) != count {
		t.Fatalf("stream ended in state %q after %d progress events with %d results, want done, >0, %d",
			state, progress, len(streamed), count)
	}
	var status jobStatus
	if err := json.Unmarshal(get(t, base+"/v1/jobs/"+created.ID), &status); err != nil {
		t.Fatalf("status: %v", err)
	}
	if status.State != "done" || len(status.Results) != count {
		t.Fatalf("status: state %q (error %q), %d results, want done with %d", status.State, status.Error, len(status.Results), count)
	}
	for i, ref := range refs {
		compare(t, fmt.Sprintf("instance %d streamed", i), streamed[i], ref)
		compare(t, fmt.Sprintf("instance %d status", i), status.Results[i], ref)
	}

	raw := get(t, "http://"+diag+"/tracez")
	checkTrace(t, "/tracez", raw, "serve", "fleet", "gbd")
	if flight := get(t, "http://"+diag+"/flightz"); !strings.Contains(string(flight), `"reason"`) {
		t.Errorf("/flightz returned no flight dump:\n%s", flight)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v", err)
		}
	case <-time.After(drainTimeout + 10*time.Second):
		t.Fatal("run did not return after SIGTERM")
	}
	if resp, err := http.Get(base + "/healthz"); err == nil {
		resp.Body.Close()
		t.Error("the gateway still answers after run returned")
	}
	raw, err = os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	checkTrace(t, "-trace-out", raw, "serve", "fleet", "gbd")
}

// freeAddr reserves a free loopback address.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// waitHealthy polls base's /healthz until it answers 200, failing t if run
// returns first or the gateway is not up within ten seconds.
func waitHealthy(t *testing.T, base string, done <-chan error) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case err := <-done:
			t.Fatalf("run returned before the gateway was healthy: %v", err)
		default:
		}
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("/healthz never became healthy")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// get returns url's body, failing t unless it answers 200.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, err %v", url, resp.StatusCode, err)
	}
	return raw
}

// jobStatus is the part of the job status document the test reads.
type jobStatus struct {
	ID      string                 `json:"id"`
	State   string                 `json:"state"`
	Error   string                 `json:"error"`
	Results []serve.InstanceResult `json:"results"`
}

// followStream reads the job's SSE stream to its end, returning the
// instance results it carried by index, the progress-event count and the
// last state it reported.
func followStream(t *testing.T, base, id string) (map[int]serve.InstanceResult, int, string) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	results := map[int]serve.InstanceResult{}
	progress, state, event := 0, "", ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		switch event {
		case "progress":
			progress++
		case "instance":
			var res serve.InstanceResult
			if err := json.Unmarshal([]byte(data), &res); err != nil {
				t.Fatalf("instance event: %v", err)
			}
			results[res.Index] = res
		case "state":
			var st struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal([]byte(data), &st); err != nil {
				t.Fatalf("state event: %v", err)
			}
			state = st.State
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream: %v", err)
	}
	return results, progress, state
}

// compare requires one gateway result to equal its core.RunBatch
// reference field for field (JSON round-trips a float64 exactly).
func compare(t *testing.T, source string, got serve.InstanceResult, want core.BatchResult) {
	t.Helper()
	if want.Fleet.Err != nil {
		t.Fatalf("%s: reference solve failed: %v", source, want.Fleet.Err)
	}
	if got.Error != "" {
		t.Fatalf("%s failed: %s", source, got.Error)
	}
	if got.Plan != want.Fleet.Plan.String() || got.Potential != want.Fleet.Potential ||
		got.SocialWelfare != want.SocialWelfare || !reflect.DeepEqual(got.Payoffs, want.Payoffs) ||
		!reflect.DeepEqual(got.Profile, want.Fleet.Profile) {
		t.Errorf("%s = %+v\nwant plan %s, potential %v, welfare %v, payoffs %v, profile %+v", source, got,
			want.Fleet.Plan, want.Fleet.Potential, want.SocialWelfare, want.Payoffs, want.Fleet.Profile)
	}
}

// checkTrace requires raw to be Chrome-trace JSON of complete events that
// each carry a name, a nonnegative duration and a trace ID, with one trace
// spanning every component in comps (a span name's prefix before its
// first dot).
func checkTrace(t *testing.T, source string, raw []byte, comps ...string) {
	t.Helper()
	var file struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Dur  float64           `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("%s is not Chrome-trace JSON: %v", source, err)
	}
	byTrace := map[string]map[string]bool{}
	for i, ev := range file.TraceEvents {
		trace := ev.Args["trace"]
		if ev.Ph != "X" || ev.Name == "" || ev.Dur < 0 || trace == "" {
			t.Fatalf("%s: event %d is not a complete, named, traced span: %+v", source, i, ev)
		}
		comp, _, _ := strings.Cut(ev.Name, ".")
		if byTrace[trace] == nil {
			byTrace[trace] = map[string]bool{}
		}
		byTrace[trace][comp] = true
	}
	for _, seen := range byTrace {
		spans := true
		for _, c := range comps {
			spans = spans && seen[c]
		}
		if spans {
			return
		}
	}
	t.Errorf("%s: none of %d traces spans %v (%d events)", source, len(byTrace), comps, len(file.TraceEvents))
}
