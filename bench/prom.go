package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"tradefl/internal/obs"
)

// series is one scrape of a Prometheus text exposition: sample value by
// series name, labels included verbatim (`name{k="v"}`).
type series map[string]float64

// parseProm reads the text exposition format. Comment lines are skipped;
// a sample line is `name[{labels}] value [timestamp]`.
func parseProm(r io.Reader) (series, error) {
	out := make(series)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The name ends at the closing brace when labelled (label values
		// may contain spaces), at the first space otherwise.
		cut := strings.IndexByte(line, ' ')
		if i := strings.IndexByte(line, '{'); i >= 0 && i < cut {
			j := strings.LastIndexByte(line, '}')
			if j < 0 {
				return nil, fmt.Errorf("prometheus text: unclosed labels in %q", line)
			}
			cut = j + 1
		}
		if cut <= 0 || cut >= len(line) {
			return nil, fmt.Errorf("prometheus text: no value in %q", line)
		}
		fields := strings.Fields(line[cut:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("prometheus text: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus text: %q: %w", line, err)
		}
		out[line[:cut]] = v
	}
	return out, sc.Err()
}

// scrapeHTTP reads a live process's /metrics.
func scrapeHTTP(addr string) (series, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", addr, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// scrapeSelf reads this process's own registry through the same text
// format, so in-process layers (the settlement chain) and the server child
// share one parser.
func scrapeSelf() (series, error) {
	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return parseProm(&buf)
}

// window is the change of every series over a measured interval. A series
// the program no longer exports is recorded in missing and reads as 0: a
// later rename must blank one layer metric, not fail the benchmark.
type window struct {
	before, after series
	missing       map[string]bool
}

func newWindow(before, after series) *window {
	return &window{before: before, after: after, missing: make(map[string]bool)}
}

// d is after−before of one series.
func (w *window) d(name string) float64 {
	a, ok := w.after[name]
	if !ok {
		w.missing[name] = true
		return 0
	}
	return a - w.before[name]
}

// sum adds the deltas of several series.
func (w *window) sum(names ...string) float64 {
	t := 0.0
	for _, n := range names {
		t += w.d(n)
	}
	return t
}
