package main

import (
	"errors"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
)

// TestFlagSet pins tradefl-server's flags: its own and the shared
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
		"diag-addr", "listen", "log-format", "log-level",
		"tenant-rate", "trace-out",
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
		"incremental", "runners", "queue", "tenant-active", "plan", "workers",
		"job-timeout", "drain-timeout", "max-orgs", "max-instances",
	} {
		c := command()
		c.Flags.SetOutput(io.Discard)
		err := c.Exec([]string{"-" + name, "1"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -"+name) {
			t.Errorf("-%s 1: err = %v, want an unknown-flag error", name, err)
		}
	}
}

// TestTenantRateMustBeFinitePositive: a -tenant-rate that would switch
// admission off (NaN, +Inf) or reject everything (negative) fails the
// command, which cli.Main turns into a nonzero exit.
func TestTenantRateMustBeFinitePositive(t *testing.T) {
	for _, rate := range []string{"NaN", "+Inf", "-Inf", "-1"} {
		c := command()
		c.Flags.SetOutput(io.Discard)
		err := c.Exec([]string{"-listen", "127.0.0.1:0", "-tenant-rate", rate})
		if err == nil || !strings.Contains(err.Error(), "tenant rate") {
			t.Errorf("-tenant-rate %s: err = %v, want a tenant-rate error", rate, err)
		}
	}
}
