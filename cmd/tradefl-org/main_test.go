package main

import (
	"errors"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
)

// TestFlagSet pins tradefl-org's flags: its own and the shared
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
		"commit", "d", "diag-addr", "f", "index", "log-format", "log-level", "rpc",
		"seed", "telemetry-out", "trace-out", "verify",
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
		"incremental", "poll", "timeout", "rpc-timeout", "rpc-retries",
	} {
		c := command()
		c.Flags.SetOutput(io.Discard)
		err := c.Exec([]string{"-" + name, "1"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -"+name) {
			t.Errorf("-%s 1: err = %v, want an unknown-flag error", name, err)
		}
	}
}

// TestContributionNeedsBothFlags: -d without -f (or the reverse) would
// silently fall back to solving DBR, so it is rejected before any RPC.
func TestContributionNeedsBothFlags(t *testing.T) {
	for _, args := range [][]string{{"-d", "0.4"}, {"-f", "4e9"}} {
		err := run(append(args, "-rpc", "127.0.0.1:1", "-index", "0"))
		if err == nil || !strings.Contains(err.Error(), "give both or neither") {
			t.Errorf("run %v: err = %v, want the both-or-neither error", args, err)
		}
	}
}
