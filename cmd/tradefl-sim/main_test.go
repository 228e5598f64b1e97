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
		"all", "chaos", "diag-addr", "diag-hold", "fig", "fleet", "list",
		"log-format", "log-level", "out", "plan", "quick", "seed", "summary",
		"telemetry-out", "trace-out", "verify",
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
		"incremental", "plan-profile", "wal-dir", "plot", "workers",
	} {
		c := command()
		c.Flags.SetOutput(io.Discard)
		err := c.Exec([]string{"-" + name, "1"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -"+name) {
			t.Errorf("-%s 1: err = %v, want an unknown-flag error", name, err)
		}
	}
}

// TestDiagHoldNeedsDiagAddr: a hold without a diagnostics server would
// only stall the run, so it is rejected before the run starts.
func TestDiagHoldNeedsDiagAddr(t *testing.T) {
	err := run([]string{"-list", "-diag-hold", "1s"})
	if err == nil || !strings.Contains(err.Error(), "-diag-hold requires -diag-addr") {
		t.Fatalf("run -diag-hold without -diag-addr: err = %v", err)
	}
}
