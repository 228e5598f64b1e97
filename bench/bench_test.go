package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tradefl/internal/core"
	"tradefl/internal/fleet"
	"tradefl/internal/serve"
)

func TestInputsArePureFunctionOfSeed(t *testing.T) {
	a, err := syncBodies(7, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := syncBodies(7, 6)
	c, _ := syncBodies(8, 6)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different sync bodies")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same sync bodies")
	}
	for i, body := range a {
		cfgs, _, err := serve.ParseJobSpec(body, gatewayLimits)
		if err != nil || len(cfgs) != 1 || cfgs[0].N() != syncOrgs[i%len(syncOrgs)] {
			t.Errorf("sync body %d does not parse to one N=%d game: %v", i, syncOrgs[i%len(syncOrgs)], err)
		}
	}

	orgs := []int{6, 8, 10}
	if !bytes.Equal(jobBody(7, 1, 5, orgs), jobBody(7, 1, 5, orgs)) {
		t.Error("same seed gave different job bodies")
	}
	seen := map[string]bool{}
	for _, body := range [][]byte{jobBody(7, 0, 0, orgs), jobBody(7, 0, 1, orgs), jobBody(7, 1, 0, orgs), jobBody(8, 0, 0, orgs)} {
		seen[string(body)] = true
	}
	if len(seen) != 4 {
		t.Errorf("jobs of different seed, client or index share a body: %v", seen)
	}

	planBytes := func(seed int64) ([]byte, string) {
		p, err := buildSettlePlan(seed)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, stage := range p.stages {
			n += len(stage)
		}
		if n != settleTxs {
			t.Fatalf("plan has %d txs, want %d", n, settleTxs)
		}
		raw, err := json.Marshal(p.stages)
		if err != nil {
			t.Fatal(err)
		}
		return raw, p.refRoot
	}
	p1, r1 := planBytes(7)
	p2, r2 := planBytes(7)
	p3, r3 := planBytes(8)
	if !bytes.Equal(p1, p2) || r1 != r2 {
		t.Error("same seed gave different settlement plans")
	}
	if bytes.Equal(p1, p3) || r1 == r3 {
		t.Error("different seeds gave the same settlement plan")
	}
}

func TestSupportedTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		got  float64
	}{
		{100000, 99.9, 99.9},
		{100000, 99, 99}, // never above what the workload asks for
		{1000, 99, 99},   // exactly 10 beyond
		{999, 99, 95},
		{200, 95, 95},
		{199, 95, 90},
		{40, 95, 75},
		{39, 95, 50},
	} {
		if got := supportedTail(tc.n, tc.want); got != tc.got {
			t.Errorf("supportedTail(%d, %g) = %g, want %g", tc.n, tc.want, got, tc.got)
		}
	}
	sample := make([]float64, 200)
	for i := range sample {
		sample[i] = float64(i + 1)
	}
	if got := percentile(sample, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %g, want 190 (10 samples beyond)", got)
	}
	if got := percentile(sample, 50); got != 100 {
		t.Errorf("p50 of 1..200 = %g, want 100", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestFoldSpansSelfTime(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	// request(0..10) re-enacted by parse(10..12) and solve(12..18); solve
	// re-enacted by two solver calls (18..20, 20..23). Children follow
	// their parent in time, as replays do.
	spans := []span{
		{Name: "request", Start: at(0), End: at(10), Parent: -1},
		{Name: "parse", Start: at(10), End: at(12), Parent: 0},
		{Name: "solve", Start: at(12), End: at(18), Parent: 0},
		{Name: "solver", Start: at(18), End: at(20), Parent: 2},
		{Name: "solver", Start: at(20), End: at(23), Parent: 2},
		{Name: "request", Start: at(30), End: at(34), Parent: -1, Op: 1},
	}
	f := foldSpans(spans)
	want := map[string]layerTime{
		"request": {Count: 2, Total: at(14), Self: at(6)}, // (10−2−6) + 4
		"parse":   {Count: 1, Total: at(2), Self: at(2)},
		"solve":   {Count: 1, Total: at(6), Self: at(1)}, // 6−2−3
		"solver":  {Count: 2, Total: at(5), Self: at(5)},
	}
	if !reflect.DeepEqual(f, want) {
		t.Errorf("fold = %+v\nwant   %+v", f, want)
	}

	path := t.TempDir() + "/trace.json"
	if err := writeChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []chromeEvent
	if err := json.Unmarshal(raw, &events); err != nil || len(events) != len(spans) {
		t.Fatalf("trace file: %d events, err %v", len(events), err)
	}
	if e := events[3]; e.Name != "solver" || e.Ph != "X" || e.Ts != 18000 || e.Dur != 2000 || e.Args["parent"] != 2 {
		t.Errorf("event 3 = %+v", e)
	}
}

const cannedExposition = `# HELP tradefl_fleet_warm_hits_total instances served verbatim from the warm result cache
# TYPE tradefl_fleet_warm_hits_total counter
tradefl_fleet_warm_hits_total %d
# TYPE tradefl_gbd_master_seconds histogram
tradefl_gbd_master_seconds_bucket{le="0.001"} 4
tradefl_gbd_master_seconds_bucket{le="+Inf"} %d
tradefl_gbd_master_seconds_sum %g
tradefl_gbd_master_seconds_count %d
# TYPE tradefl_trace_roots_total counter
tradefl_trace_roots_total{component="serve",note="a b"} %d
tradefl_pool_queue_depth 0
`

func TestPromDeltaAndMissingSeries(t *testing.T) {
	before, err := parseProm(strings.NewReader(fmt.Sprintf(cannedExposition, 3, 5, 0.25, 5, 1)))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(fmt.Sprintf(cannedExposition, 10, 9, 1.5, 9, 4)))
	if err != nil {
		t.Fatal(err)
	}
	w := newWindow(before, after)
	for name, want := range map[string]float64{
		"tradefl_fleet_warm_hits_total":                           7,
		"tradefl_gbd_master_seconds_sum":                          1.25,
		"tradefl_gbd_master_seconds_count":                        4,
		`tradefl_gbd_master_seconds_bucket{le="+Inf"}`:            4,
		`tradefl_trace_roots_total{component="serve",note="a b"}`: 3,
		"tradefl_pool_queue_depth":                                0,
	} {
		if got := w.d(name); got != want {
			t.Errorf("delta of %s = %g, want %g", name, got, want)
		}
	}
	if len(w.missing) != 0 {
		t.Errorf("present series reported missing: %v", w.missing)
	}
	// A series a later change renamed reads 0 and is named, never an error.
	if got := w.sum("tradefl_fleet_warm_hits_total", "tradefl_fleet_renamed_total"); got != 7 {
		t.Errorf("sum with a missing series = %g, want 7", got)
	}
	if !w.missing["tradefl_fleet_renamed_total"] || len(w.missing) != 1 {
		t.Errorf("missing = %v, want only the renamed series", w.missing)
	}
	if _, err := parseProm(strings.NewReader("tradefl_x{le=\"1\" 3\n")); err == nil {
		t.Error("unclosed label set parsed without error")
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio over an empty base = %g, want 0", got)
	}

	// The harness reads its own registry through the same parser.
	self, err := scrapeSelf()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := self["tradefl_chain_wal_fsyncs_total"]; !ok {
		t.Error("own registry lacks tradefl_chain_wal_fsyncs_total")
	}
}

func TestPacedReaderTimesFromDueInstant(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	clock := time.Unix(0, 0)
	now := func() time.Time { return clock }
	sleep := func(d time.Duration) { clock = clock.Add(d) }
	// The second read stalls for 12 ms, more than two 5 ms periods.
	took := []time.Duration{at(1), at(12), at(1), at(1), at(1)}
	done := 0
	samples := runPaced(at(5), now, sleep, func() bool { return done == len(took) }, func(i int) {
		clock = clock.Add(took[i])
		done++
	})
	want := []pacedSample{
		{latency: at(1)},
		{latency: at(12)},             // due 5, ran 5..17
		{latency: at(8), late: at(7)}, // due 10, ran 17..18: the stall is charged to it
		{latency: at(4), late: at(3)}, // due 15, ran 18..19
		{latency: at(1)},              // due 20: caught up, on time again
	}
	if !reflect.DeepEqual(samples, want) {
		t.Errorf("samples = %v\nwant      %v", samples, want)
	}
}

func TestRunLoadReportsReferenceTime(t *testing.T) {
	// The host runs at half its nominal speed: every duration measured on
	// it is worth half as much reference time.
	halfSpeed := func(time.Duration) (float64, error) { return 0.5, nil }
	var startReads int
	var warmed, worked atomic.Int32 // operations of the warm-up, of the window
	load, err := runLoad(context.Background(), loadSpec{
		clients: 2, warmup: 20 * time.Millisecond, window: 80 * time.Millisecond,
		op: func(client, k int, measured bool) (time.Duration, int, error) {
			time.Sleep(time.Millisecond)
			if !measured {
				warmed.Add(1)
				return 0, 0, nil
			}
			worked.Add(1)
			if client == 1 && k%2 == 0 {
				return 0, 0, fmt.Errorf("refused")
			}
			return 10 * time.Millisecond, 3, nil
		},
		// The system under test burns 0.5 CPU seconds per operation and
		// nothing in between, so it is quiet whenever the loop pauses.
		cpu:     func() (float64, error) { return 0.5 * float64(worked.Load()), nil },
		atStart: func() error { startReads++; return nil },
	}, halfSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if startReads != 1 || warmed.Load() == 0 {
		t.Errorf("atStart ran %d times after %d warm-up ops, want once after some", startReads, warmed.Load())
	}
	if load.attempted == 0 || load.failed == 0 || load.ops != 3*(load.attempted-load.failed) {
		t.Errorf("attempted %d, failed %d, ops %d: want 3 ops per successful operation and client 1 failing every other one", load.attempted, load.failed, load.ops)
	}
	if len(load.latencies) != load.attempted-load.failed || load.latencies[0] != 5 {
		t.Errorf("latencies %v: want one 5 ms (10 ms at half speed) sample per success", load.latencies)
	}
	if want := 0.5 * float64(load.attempted); load.rawCPUSec != want || load.cpuSec != want/2 {
		t.Errorf("cpu %g raw, %g reference: want %g and %g", load.rawCPUSec, load.cpuSec, want, want/2)
	}
	if r := load.rate / load.rawRate; r < 1.999 || r > 2.001 {
		t.Errorf("reference rate is %g× the wall-clock rate, want 2×", r)
	}
	if !reflect.DeepEqual(load.speeds, []float64{0.5}) {
		t.Errorf("slice speeds %v, want one slice at 0.5", load.speeds)
	}
}

func TestFollowStreamCountsInstancesAcrossLongLines(t *testing.T) {
	long := strings.Repeat("x", 200<<10) // a result line larger than the read buffer
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "id: 0\nevent: state\ndata: {\"id\":\"j\",\"instances\":2,\"state\":\"running\"}\n\n")
		fmt.Fprint(w, "id: 1\nevent: instance\ndata: {\"index\":0}\n\n")
		// "event: instance" inside a data payload must not count.
		fmt.Fprintf(w, "id: 2\nevent: result\ndata: {\"pad\":\"%s\\nevent: instance\"}\n\n", long)
		fmt.Fprint(w, "id: 3\nevent: instance\ndata: {\"index\":1}\n\n")
		fmt.Fprint(w, "id: 4\nevent: state\ndata: {\"id\":\"j\",\"instances\":2,\"state\":\"done\"}\n\n")
	}))
	defer srv.Close()
	cl := newAPIClient(strings.TrimPrefix(srv.URL, "http://"), "t")
	defer cl.close()
	var run jobRun
	state, err := cl.follow("j", &run)
	if err != nil || state != "done" {
		t.Fatalf("follow: state %q, err %v", state, err)
	}
	if run.instances != 2 || run.terminalAt.IsZero() || run.bytes < len(long) {
		t.Errorf("run = %+v, want 2 instances, a terminal time and all bytes counted", run)
	}
}

func TestCheckerRejectsAWrongResult(t *testing.T) {
	bodies, err := syncBodies(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfgs, plan, err := serve.ParseJobSpec(bodies[0], gatewayLimits)
	if err != nil {
		t.Fatal(err)
	}
	ref := core.RunBatch(context.Background(), cfgs, fleet.Options{Plan: plan})[0]
	good := serve.InstanceResult{
		Plan: ref.Fleet.Plan.String(), Profile: ref.Fleet.Profile, Potential: ref.Fleet.Potential,
		Payoffs: ref.Payoffs, SocialWelfare: ref.SocialWelfare,
	}
	ctx := context.Background()
	if err := checkAgainstBatch(ctx, bodies[0], []serve.InstanceResult{good}); err != nil {
		t.Errorf("reference result rejected: %v", err)
	}
	bad := good
	bad.Payoffs = append([]float64(nil), good.Payoffs...)
	bad.Payoffs[0] += 1e-9
	if err := checkAgainstBatch(ctx, bodies[0], []serve.InstanceResult{bad}); err == nil {
		t.Error("a payoff off by 1e-9 passed the checker")
	}
	if err := checkAgainstBatch(ctx, bodies[0], nil); err == nil {
		t.Error("a reply without results passed the checker")
	}
}

// benchmarkJSON is the shape of BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the harness default is %d", decl.RunSeconds, defaultSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.Name || decl.Workloads[i].Why != w.Why {
			t.Errorf("workload %d declared as %q (%q), implemented as %q (%q)", i, decl.Workloads[i].Name, decl.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end declared as %+v\nimplemented as %+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer declared as %+v\nimplemented as %+v", decl.PerLayer, perLayer)
	}
}
