package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestFlightRingKeepsNewestOnWrap(t *testing.T) {
	FlightReset()
	total := flightCap + 137
	for i := 0; i < total; i++ {
		FlightRecord("test", "evt", fmt.Sprintf("i=%d", i))
	}
	evs := FlightEvents()
	if len(evs) != flightCap {
		t.Fatalf("ring holds %d events, want %d", len(evs), flightCap)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("event sequence not contiguous at %d: %d after %d", i, evs[i].Seq, evs[i-1].Seq)
		}
	}
	if got, want := evs[len(evs)-1].Detail, fmt.Sprintf("i=%d", total-1); got != want {
		t.Errorf("newest event detail = %q, want %q", got, want)
	}
	if got, want := evs[0].Detail, fmt.Sprintf("i=%d", total-flightCap); got != want {
		t.Errorf("oldest retained detail = %q, want %q", got, want)
	}
}

func TestFlightRingConcurrentRecordAndSnapshot(t *testing.T) {
	FlightReset()
	const goroutines, perG = 8, 2000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				FlightRecord("test", "concurrent", fmt.Sprintf("g=%d i=%d", g, i))
			}
		}(g)
	}
	// Snapshots taken mid-write must stay internally consistent (sorted,
	// no nil gaps) even while the ring wraps under them.
	for i := 0; i < 50; i++ {
		evs := FlightEvents()
		for j := 1; j < len(evs); j++ {
			if evs[j].Seq <= evs[j-1].Seq {
				t.Fatalf("snapshot out of order: seq %d after %d", evs[j].Seq, evs[j-1].Seq)
			}
		}
	}
	wg.Wait()
	if got := len(FlightEvents()); got != flightCap {
		t.Errorf("ring holds %d events after %d records, want %d", got, goroutines*perG, flightCap)
	}
}

func TestFlightDumpJSONCarriesReasonAndEvents(t *testing.T) {
	FlightReset()
	FlightRecord("verify", "violation", "check=balance delta=3")
	data, err := FlightDumpJSON("unit-test dump")
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Reason   string        `json:"reason"`
		Recorded uint64        `json:"recorded"`
		Events   []FlightEvent `json:"events"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("dump does not parse: %v", err)
	}
	if dump.Reason != "unit-test dump" {
		t.Errorf("dump reason = %q", dump.Reason)
	}
	if dump.Recorded != 1 || len(dump.Events) != 1 {
		t.Fatalf("dump recorded=%d events=%d, want 1/1", dump.Recorded, len(dump.Events))
	}
	ev := dump.Events[0]
	if ev.Component != "verify" || ev.Kind != "violation" || ev.Detail != "check=balance delta=3" {
		t.Errorf("dumped event = %+v", ev)
	}
}

func TestFlightDumpOnPanicDumpsAndRepanics(t *testing.T) {
	FlightReset()
	FlightRecord("test", "pre-panic", "breadcrumb")
	var buf bytes.Buffer
	recovered := func() (r any) {
		defer func() { r = recover() }()
		defer FlightDumpOnPanic(&buf)
		panic("kaboom")
	}()
	if recovered != "kaboom" {
		t.Fatalf("panic value not re-raised: got %v", recovered)
	}
	out := buf.String()
	if !strings.Contains(out, "FLIGHT RECORDER DUMP") {
		t.Errorf("panic dump missing banner:\n%s", out)
	}
	if !strings.Contains(out, "breadcrumb") {
		t.Errorf("panic dump missing recorded event:\n%s", out)
	}
}
