package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Flight recorder: a fixed-size, lock-free ring journaling the last N
// rare events of this process — fault injections, retry/resend decisions,
// failovers, panics. Completed
// span trees live in the trace store, not here. It is always on (the
// recorded events are rare relative to solver work; one write is an atomic
// counter bump plus one pointer store), and it is dumped as JSON on panic,
// in the log of a failed chaos soak test, and on
// demand via /flightz — turning "the soak failed" into a readable
// last-N-events timeline.

// FlightEvent is one journaled event.
type FlightEvent struct {
	Seq          uint64 `json:"seq"`
	TimeUnixNano int64  `json:"timeUnixNano"`
	Component    string `json:"component"`
	Kind         string `json:"kind"`
	Detail       string `json:"detail,omitempty"`
}

const flightCap = 2048

type flightRing struct {
	slots  []atomic.Pointer[FlightEvent]
	cursor atomic.Uint64
}

var defaultFlight = &flightRing{slots: make([]atomic.Pointer[FlightEvent], flightCap)}

var mFlightEvents = NewCounter("tradefl_flight_events_total",
	"Events journaled into the flight-recorder ring (including overwritten ones).")

// FlightRecord journals an event.
func FlightRecord(component, kind, detail string) {
	f := defaultFlight
	seq := f.cursor.Add(1)
	ev := &FlightEvent{
		Seq:          seq,
		TimeUnixNano: time.Now().UnixNano(),
		Component:    component,
		Kind:         kind,
		Detail:       detail,
	}
	f.slots[(seq-1)%uint64(len(f.slots))].Store(ev)
	mFlightEvents.Inc()
}

// snapshot returns the surviving events in Seq order.
func (f *flightRing) snapshot() []FlightEvent {
	out := make([]FlightEvent, 0, len(f.slots))
	for i := range f.slots {
		if ev := f.slots[i].Load(); ev != nil {
			out = append(out, *ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// FlightEvents returns the surviving journal, oldest first.
func FlightEvents() []FlightEvent { return defaultFlight.snapshot() }

// FlightReset clears the journal (test hook).
func FlightReset() {
	for i := range defaultFlight.slots {
		defaultFlight.slots[i].Store(nil)
	}
	defaultFlight.cursor.Store(0)
}

// flightDump is the JSON document written by dumps and /flightz.
type flightDump struct {
	Reason       string        `json:"reason,omitempty"`
	TimeUnixNano int64         `json:"timeUnixNano"`
	Recorded     uint64        `json:"recorded"`
	Events       []FlightEvent `json:"events"`
}

// FlightDumpJSON renders the journal (with the total recorded count, so a
// reader can tell how much history the ring has shed).
func FlightDumpJSON(reason string) ([]byte, error) {
	return json.MarshalIndent(flightDump{
		Reason:       reason,
		TimeUnixNano: time.Now().UnixNano(),
		Recorded:     defaultFlight.cursor.Load(),
		Events:       defaultFlight.snapshot(),
	}, "", " ")
}

// DumpFlight writes the flight-recorder journal to w with a banner line —
// the automatic post-mortem path for panics.
func DumpFlight(w io.Writer, reason string) {
	raw, err := FlightDumpJSON(reason)
	if err != nil {
		fmt.Fprintf(w, "obs: flight dump failed: %v\n", err)
		return
	}
	fmt.Fprintf(w, "--- FLIGHT RECORDER DUMP (%s) ---\n%s\n--- END FLIGHT RECORDER DUMP ---\n", reason, raw)
}

// FlightDumpOnPanic dumps the journal to w before re-panicking; defer it
// at the top of main.
func FlightDumpOnPanic(w io.Writer) {
	if r := recover(); r != nil {
		FlightRecord("runtime", "panic", fmt.Sprint(r))
		DumpFlight(w, fmt.Sprintf("panic: %v", r))
		panic(r)
	}
}
