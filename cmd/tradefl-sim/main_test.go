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

// TestIncrementalFlagIsGone: the solvers have one evaluation path, so the
// flag that used to select it is an unknown flag.
func TestIncrementalFlagIsGone(t *testing.T) {
	err := run([]string{"-incremental", "on"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -incremental") {
		t.Fatalf("run -incremental on: err = %v, want an unknown-flag error", err)
	}
}
