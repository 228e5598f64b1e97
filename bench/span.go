package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// harness around the call (the program itself carries no benchmark spans).
// Parent is the span whose work this one accounts for: the traced pass
// replays a layer's inner calls right after the outer call, so a child is
// usually a sibling in time and self time is folded from durations, not
// from interval overlap.
type span struct {
	Name   string
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
	Parent int // index into the recorder's spans, -1 for a root
	Op     int // the operation (request, job, settlement) the span belongs to
}

// recorder keeps spans in memory until the pass ends. It is used from the
// single goroutine that drives a traced pass.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (r *recorder) begin(name string, parent, op int) int {
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.epoch), Parent: parent, Op: op})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) { r.spans[id].End = time.Since(r.epoch) }

// timed records fn as one span.
func (r *recorder) timed(name string, parent, op int, fn func()) {
	id := r.begin(name, parent, op)
	fn()
	r.end(id)
}

// layerTime is the fold of every span of one name.
type layerTime struct {
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // Total minus the durations of direct children
}

// foldSpans sums, per span name, total time and self time (a span's
// duration minus its direct children's). Self may go negative when a
// replayed child ran slower than the same work did inside its parent; it is
// reported as measured.
func foldSpans(spans []span) map[string]layerTime {
	children := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		lt := out[s.Name]
		lt.Count++
		lt.Total += s.End - s.Start
		lt.Self += s.End - s.Start - children[i]
		out[s.Name] = lt
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace format
// (chrome://tracing, ui.perfetto.dev).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChromeTrace writes the spans as a Chrome-trace JSON array.
func writeChromeTrace(path string, spans []span) error {
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]int{"id": i, "parent": s.Parent, "op": s.Op},
		}
	}
	raw, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
