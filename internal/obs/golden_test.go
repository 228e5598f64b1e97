package obs_test

import (
	"bufio"
	"strconv"
	"strings"
	"testing"

	"tradefl/internal/dbr"
	"tradefl/internal/game"
	"tradefl/internal/gbd"
	"tradefl/internal/obs"

	_ "tradefl/internal/chain" // register chain metrics
	_ "tradefl/internal/fl"    // register fl metrics
)

// runSolvers drives one short CGBD and one DBR run so the solver metrics
// move off zero.
func runSolvers(t *testing.T) {
	t.Helper()
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gbd.Solve(cfg, gbd.Options{}); err != nil {
		t.Fatalf("gbd: %v", err)
	}
	if _, err := dbr.Solve(cfg, nil, dbr.Options{}); err != nil {
		t.Fatalf("dbr: %v", err)
	}
}

// TestGoldenMetricNames asserts the instrumentation contract: a short run
// of both solvers leaves the documented metric names in the default
// registry, with the run-scoped ones off zero.
func TestGoldenMetricNames(t *testing.T) {
	obs.EnableTracing(true)
	t.Cleanup(func() { obs.EnableTracing(false); obs.ResetTraces() })
	runSolvers(t)
	snap := obs.Default.Snapshot()

	// Must be present AND nonzero after one run of each solver.
	for _, name := range []string{
		"tradefl_gbd_runs_total",
		"tradefl_gbd_iterations_total",
		"tradefl_gbd_optimality_cuts_total",
		"tradefl_dbr_runs_total",
		"tradefl_dbr_rounds_total",
		"tradefl_dbr_best_responses_total",
		"tradefl_dbr_candidates_total",
	} {
		s, ok := obs.Find(snap, name)
		if !ok {
			t.Errorf("metric %s not registered", name)
			continue
		}
		if s.Value == 0 {
			t.Errorf("metric %s still zero after a solver run", name)
		}
	}
	// Histograms that must have recorded observations.
	for _, name := range []string{
		"tradefl_gbd_solve_seconds",
		"tradefl_gbd_master_seconds",
		"tradefl_gbd_primal_seconds",
		"tradefl_dbr_solve_seconds",
		"tradefl_dbr_sweep_seconds",
	} {
		s, ok := obs.Find(snap, name)
		if !ok {
			t.Errorf("histogram %s not registered", name)
			continue
		}
		if s.Count == 0 {
			t.Errorf("histogram %s has no observations after a solver run", name)
		}
	}
	// Must be present (registered at init) even when that subsystem did not
	// run — the acceptance contract for /metrics.
	for _, name := range []string{
		"tradefl_fl_rounds_total",
		"tradefl_chain_tx_submitted_total",
		"tradefl_pool_fanouts_total",
	} {
		if _, ok := obs.Find(snap, name); !ok {
			t.Errorf("metric %s not registered at init", name)
		}
	}

	// A traced solver run also publishes span trees.
	if obs.LastRunSpan("gbd.solve") == nil {
		t.Error("gbd.solve span not published")
	}
	if obs.LastRunSpan("dbr.solve") == nil {
		t.Error("dbr.solve span not published")
	}
}

// TestGoldenPrometheusText parses the full Prometheus exposition line by
// line: every line must be a well-formed HELP/TYPE comment or a sample with
// a parseable float value, and every TYPE must be followed by its samples.
func TestGoldenPrometheusText(t *testing.T) {
	runSolvers(t)
	var sb strings.Builder
	if err := obs.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if out == "" {
		t.Fatal("empty exposition")
	}

	types := map[string]string{} // metric base name → declared type
	seenSample := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(out))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			t.Errorf("line %d: blank line in exposition", lineNo)
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			if len(strings.SplitN(line[len("# HELP "):], " ", 2)) < 1 {
				t.Errorf("line %d: malformed HELP: %q", lineNo, line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line[len("# TYPE "):])
			if len(parts) != 2 {
				t.Errorf("line %d: malformed TYPE: %q", lineNo, line)
				continue
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Errorf("line %d: unknown metric type %q", lineNo, parts[1])
			}
			types[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("line %d: unexpected comment %q", lineNo, line)
			continue
		}
		// Sample line: name[{labels}] value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Errorf("line %d: no value separator: %q", lineNo, line)
			continue
		}
		nameAndLabels, val := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Errorf("line %d: unparseable value %q: %v", lineNo, val, err)
		}
		name := nameAndLabels
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Errorf("line %d: unterminated label set: %q", lineNo, line)
			}
			name = name[:i]
		}
		// Histogram series use the base name + _bucket/_sum/_count.
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suffix)
			if trimmed != name {
				if _, ok := types[trimmed]; ok {
					base = trimmed
					break
				}
			}
		}
		if _, ok := types[base]; !ok {
			t.Errorf("line %d: sample %q has no preceding TYPE", lineNo, name)
		}
		seenSample[base] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for name := range types {
		if !seenSample[name] {
			t.Errorf("TYPE %s declared but no sample emitted", name)
		}
	}
	for _, want := range []string{
		"tradefl_gbd_iterations_total",
		"tradefl_dbr_rounds_total",
		"tradefl_fl_rounds_total",
	} {
		if _, ok := types[want]; !ok {
			t.Errorf("exposition missing required metric %s", want)
		}
	}
}
