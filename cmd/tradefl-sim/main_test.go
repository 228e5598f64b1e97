package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tradefl/internal/obs"
	"tradefl/internal/verify"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("run -list: %v", err)
	}
}

func TestRunRequiresSelection(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no selection accepted")
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run([]string{"-fig", "fig99", "-quick"}); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRunFigureToStdout(t *testing.T) {
	if err := run([]string{"-fig", "table2", "-quick"}); err != nil {
		t.Fatalf("run table2: %v", err)
	}
}

func TestRunFigureToFile(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-fig", "table2", "-quick", "-out", dir}); err != nil {
		t.Fatalf("run table2 -out: %v", err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "table2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Error("empty CSV written")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestFlagSet pins tradefl-sim's flags: its own and the shared
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
		"all", "diag-addr", "fig", "list", "log-format", "log-level", "out",
		"quick", "seed", "trace-out",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags = %v\nwant    %v", got, want)
	}
}

// TestIncrementalFlagIsGone: the switch of the solvers' old second
// evaluation path, every setting that had one value in use (now a
// constant), the chaos soak (now the internal/chaos tests), the fleet
// batch mode (now a generate job on tradefl-server), the diagnostics hold
// and the summary switch (now -log-level) are unknown flags.
func TestIncrementalFlagIsGone(t *testing.T) {
	for _, name := range []string{
		"incremental", "plan-profile", "wal-dir", "plot", "workers", "chaos",
		"fleet", "plan", "diag-hold", "summary",
	} {
		c := command()
		c.Flags.SetOutput(io.Discard)
		err := c.Exec([]string{"-" + name, "1"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -"+name) {
			t.Errorf("-%s 1: err = %v, want an unknown-flag error", name, err)
		}
	}
}

// TestFigureRunUnderVerify: a figure run with the invariant auditor
// armed. fig4 solves with both CGBD and DBR, so the solver counters rise,
// every solve is audited, and a clean run records no violation.
func TestFigureRunUnderVerify(t *testing.T) {
	a := verify.Enable()
	defer verify.Disable()
	series := []string{"tradefl_gbd_runs_total", "tradefl_dbr_rounds_total"}
	before := counters(t, series)
	if err := run([]string{"-fig", "fig4", "-quick", "-log-level", "error", "-out", t.TempDir()}); err != nil {
		t.Fatalf("run fig4: %v", err)
	}
	after := counters(t, series)
	for _, name := range series {
		if after[name] <= before[name] {
			t.Errorf("%s stayed at %v through an audited fig4 run", name, after[name])
		}
	}
	if a.Checks() == 0 {
		t.Error("the auditor ran no check through a fig4 run")
	}
	if a.Count() != 0 {
		t.Errorf("%d violations on a clean run:\n%s", a.Count(), a.Summary())
	}
}

// counters reads each named series from the default registry.
func counters(t *testing.T, names []string) map[string]float64 {
	t.Helper()
	snap := obs.Default.Snapshot()
	vals := map[string]float64{}
	for _, name := range names {
		s, ok := obs.Find(snap, name)
		if !ok {
			t.Fatalf("%s is not registered", name)
		}
		vals[name] = s.Value
	}
	return vals
}
