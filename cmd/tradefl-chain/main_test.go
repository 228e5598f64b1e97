package main

import (
	"strings"
	"testing"
)

// TestIncrementalFlagIsGone: the solvers have one evaluation path, so the
// flag that used to select it is an unknown flag.
func TestIncrementalFlagIsGone(t *testing.T) {
	err := run([]string{"-incremental", "on"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -incremental") {
		t.Fatalf("run -incremental on: err = %v, want an unknown-flag error", err)
	}
}
