// Package cli is the one lifecycle every TradeFL command runs under.
//
// Command.Exec parses a command's own flags together with the shared
// observability flags (-log-level, -log-format, -diag-addr, -trace-out),
// turns SIGINT/SIGTERM into a cancelled context before the command's body
// starts, arms tracing before the body and writes the -trace-out file after
// it, and folds the -verify audit into the result. Main turns that result
// into the process exit status.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"tradefl/internal/obs"
	"tradefl/internal/verify"
)

// Command is one command's flags and body.
type Command struct {
	// Flags holds the command's own flags; Exec adds the shared ones.
	Flags *flag.FlagSet
	// Verify adds -verify, which installs the invariant auditor before the
	// body runs and fails a run that breached an invariant.
	Verify bool
	// Run is the body. ctx is cancelled on SIGINT/SIGTERM; diag is the
	// -diag-addr server, nil without that flag.
	Run func(ctx context.Context, diag *obs.DiagServer) error
}

// Exec runs the command on args. A -h or -help returns flag.ErrHelp after
// the usage text.
func (c Command) Exec(args []string) (err error) {
	// Armed before anything else, so no signal falls into a gap between
	// readiness and a handler; the body decides what cancellation means.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fs := c.Flags
	verifyOn := new(bool)
	if c.Verify {
		fs.BoolVar(verifyOn, "verify", false, "audit solver and settlement invariants at runtime (tradefl_verify_* metrics; nonzero exit on violation)")
	}
	level := fs.String("log-level", "info", "minimum log level: debug|info|warn|error")
	format := fs.String("log-format", "text", "log output format: text|json")
	diagAddr := fs.String("diag-addr", "", "serve /metrics, /healthz, /tracez, /flightz and /debug/pprof on this address (empty = disabled)")
	traceOut := fs.String("trace-out", "", "enable distributed tracing and write completed traces as Chrome-trace JSON to this file at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if err := obs.ConfigureLogging(*level, *format, nil); err != nil {
		return err
	}
	if *verifyOn {
		verify.Enable()
	}
	if *traceOut != "" {
		obs.EnableTracing(true)
		// Write the trace file whichever way the body exits.
		defer func() {
			if terr := writeTraces(*traceOut); terr != nil && err == nil {
				err = terr
			}
		}()
	}
	var diag *obs.DiagServer
	if *diagAddr != "" {
		if diag, err = obs.StartDiag(*diagAddr); err != nil {
			return err
		}
		// Close drains in-flight scrapes and profiles (bounded).
		defer diag.Close()
		obs.Component("obs").Info("diagnostics serving", "addr", diag.Addr())
	}

	if err := c.Run(ctx, diag); err != nil {
		return err
	}
	return verify.Finish()
}

// writeTraces writes the retained traces to path as Chrome trace JSON.
func writeTraces(path string) error {
	out, err := os.Create(path)
	if err == nil {
		err = obs.WriteChromeTrace(out)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("obs: trace out: %w", err)
	}
	return nil
}

// Main runs run on the process arguments and exits: 0 on success or -h,
// 1 after printing "name: err". A panic dumps the flight recorder first.
func Main(name string, run func(args []string) error) {
	defer obs.FlightDumpOnPanic(os.Stderr)
	os.Exit(exitCode(os.Stderr, name, run(os.Args[1:])))
}

// exitCode is Main's exit status for err, reporting a failure on w.
func exitCode(w io.Writer, name string, err error) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	fmt.Fprintf(w, "%s: %v\n", name, err)
	return 1
}
