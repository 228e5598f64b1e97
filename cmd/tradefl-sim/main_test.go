package main

import (
	"os"
	"path/filepath"
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

func TestRunPlotMode(t *testing.T) {
	if err := run([]string{"-fig", "fig5", "-quick", "-plot"}); err != nil {
		t.Fatalf("run -plot: %v", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestIncrementalFlagIsGone: the solvers have one evaluation path and the
// planner one size rule, so the flags that used to select a twin or
// load a calibrated profile are unknown flags.
func TestIncrementalFlagIsGone(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"-incremental", "on"},
		{"-plan-profile", "cal.json"},
	} {
		err := run([]string{tc.flag, tc.value})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+tc.flag) {
			t.Errorf("run %s %s: err = %v, want an unknown-flag error", tc.flag, tc.value, err)
		}
	}
}
