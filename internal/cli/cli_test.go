package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"tradefl/internal/obs"
)

// TestSignalCancelsContextAndFlushesSinks: a SIGTERM that arrives while
// the body runs cancels its ctx instead of killing the process, and the
// -trace-out file is written after the body returns.
func TestSignalCancelsContextAndFlushesSinks(t *testing.T) {
	t.Cleanup(func() { obs.EnableTracing(false) })
	traceOut := filepath.Join(t.TempDir(), "trace.json")
	err := Command{
		Flags: flag.NewFlagSet("cli-test", flag.ContinueOnError),
		Run: func(ctx context.Context, _ *obs.DiagServer) error {
			if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
				return err
			}
			select {
			case <-ctx.Done():
			case <-time.After(10 * time.Second):
				return errors.New("SIGTERM did not cancel ctx")
			}
			_, span := obs.Span(ctx, "cli.test")
			span.End()
			return nil
		},
	}.Exec([]string{"-trace-out", traceOut, "-log-level", "error"})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) || !bytes.Contains(raw, []byte("cli.test")) {
		t.Errorf("trace file lacks the body's span:\n%s", raw)
	}
}

// TestExitCode: success and -h exit 0 without a word; anything else is
// reported as "name: err" and exits 1.
func TestExitCode(t *testing.T) {
	for _, tc := range []struct {
		err      error
		code     int
		reported string
	}{
		{nil, 0, ""},
		{flag.ErrHelp, 0, ""},
		{fmt.Errorf("parse: %w", flag.ErrHelp), 0, ""},
		{errors.New("boom"), 1, "tradefl-x: boom\n"},
	} {
		var w bytes.Buffer
		if code := exitCode(&w, "tradefl-x", tc.err); code != tc.code || w.String() != tc.reported {
			t.Errorf("exitCode(%v) = %d, %q; want %d, %q", tc.err, code, w.String(), tc.code, tc.reported)
		}
	}
}
