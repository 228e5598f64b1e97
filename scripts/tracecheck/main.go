// Command tracecheck validates a Chrome-trace JSON file produced by
// -trace-out or /tracez?fmt=chrome: the file must parse, every event must
// be a well-formed complete event, and at least one trace must span a
// minimum number of distinct components (the prefix of the span name
// before the first dot — dbr, ring, chain, chaos, fleet, ...).
//
// Usage:
//
//	tracecheck [-min-components 3] [-min-events 1] trace.json
//
// Exits non-zero with a diagnostic when the contract is broken; prints a
// one-line summary when it holds. scripts/ci.sh runs this as part of the
// obs-v2 gate against a traced fleet batch's -trace-out file and a held
// server's /tracez.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

type event struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

type traceFile struct {
	TraceEvents []event `json:"traceEvents"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tracecheck", flag.ContinueOnError)
	minComponents := fs.Int("min-components", 3, "one trace must span at least this many distinct span-name components")
	minEvents := fs.Int("min-events", 1, "minimum number of span events in the file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: tracecheck [-min-components N] [-min-events N] <trace.json>")
	}
	raw, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		return fmt.Errorf("%s is not valid Chrome-trace JSON: %w", fs.Arg(0), err)
	}
	if len(tf.TraceEvents) < *minEvents {
		return fmt.Errorf("%d span events, need at least %d", len(tf.TraceEvents), *minEvents)
	}

	byTrace := map[string]map[string]bool{}
	for i, ev := range tf.TraceEvents {
		if ev.Ph != "X" {
			return fmt.Errorf("event %d (%q) has phase %q, want complete-event X", i, ev.Name, ev.Ph)
		}
		if ev.Name == "" {
			return fmt.Errorf("event %d has no name", i)
		}
		if ev.Dur < 0 {
			return fmt.Errorf("event %d (%q) has negative duration %g", i, ev.Name, ev.Dur)
		}
		trace := ev.Args["trace"]
		if trace == "" {
			return fmt.Errorf("event %d (%q) carries no trace ID", i, ev.Name)
		}
		comp, _, _ := strings.Cut(ev.Name, ".")
		if byTrace[trace] == nil {
			byTrace[trace] = map[string]bool{}
		}
		byTrace[trace][comp] = true
	}

	bestTrace, best := "", 0
	for trace, comps := range byTrace {
		if len(comps) > best {
			best, bestTrace = len(comps), trace
		}
	}
	if best < *minComponents {
		return fmt.Errorf("no trace spans %d components (best: %d across %d trace(s))",
			*minComponents, best, len(byTrace))
	}
	comps := make([]string, 0, best)
	for c := range byTrace[bestTrace] {
		comps = append(comps, c)
	}
	sort.Strings(comps)
	fmt.Printf("tracecheck: %d events, %d trace(s); trace %s spans %d components (%s)\n",
		len(tf.TraceEvents), len(byTrace), bestTrace, best, strings.Join(comps, ","))
	return nil
}
