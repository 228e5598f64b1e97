package main

import (
	"errors"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
)

// TestFlagSet pins tradefl-chain's flags: its own and the shared
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
		"diag-addr", "listen", "log-format", "log-level", "recover",
		"replicate", "seed", "standby",
		"trace-out", "wal-dir",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags = %v\nwant    %v", got, want)
	}
}

// TestIncrementalFlagIsGone: the switch of the solvers' old second
// evaluation path, every setting that had one value in use (now a
// constant), the checkpoint cadence of the retired snapshot format and
// the server-side RPC fault injection are unknown flags.
func TestIncrementalFlagIsGone(t *testing.T) {
	for _, name := range []string{
		"incremental", "fund", "keys", "failover-timeout", "store", "snapshot-interval", "chaos",
	} {
		c := command()
		c.Flags.SetOutput(io.Discard)
		err := c.Exec([]string{"-" + name, "1"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -"+name) {
			t.Errorf("-%s 1: err = %v, want an unknown-flag error", name, err)
		}
	}
}
