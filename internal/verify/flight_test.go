package verify

import (
	"encoding/json"
	"strings"
	"testing"

	"tradefl/internal/obs"
)

// TestViolationRecordsFlightEvent asserts the post-mortem chain: an
// injected invariant breach lands in the flight recorder, and the dump a
// -verify failure triggers contains the violating event.
func TestViolationRecordsFlightEvent(t *testing.T) {
	obs.FlightReset()
	a := Enable()
	defer Disable()

	// Inject a potential-trace regression — the canonical mutation from
	// the PR 5 mutation suite.
	if a.CheckPotentialMonotone("flight-test", []float64{1, 2, 1.5, 3}) {
		t.Fatal("injected potential drop not detected")
	}

	var hit *obs.FlightEvent
	for _, ev := range obs.FlightEvents() {
		if ev.Component == "verify" && ev.Kind == "violation" {
			ev := ev
			hit = &ev
		}
	}
	if hit == nil {
		t.Fatal("violation did not reach the flight recorder")
	}
	if !strings.Contains(hit.Detail, "potential-monotone") || !strings.Contains(hit.Detail, "flight-test") {
		t.Errorf("flight event detail lacks check/source: %q", hit.Detail)
	}

	// Finish on a dirty audit fails AND the on-failure dump carries the
	// violating event.
	if err := Finish(); err == nil {
		t.Fatal("Finish returned nil on a dirty audit")
	}
	dump, err := obs.FlightDumpJSON("test")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Events []obs.FlightEvent `json:"events"`
	}
	if err := json.Unmarshal(dump, &doc); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range doc.Events {
		if ev.Component == "verify" && ev.Kind == "violation" && strings.Contains(ev.Detail, "potential-monotone") {
			found = true
		}
	}
	if !found {
		t.Error("flight dump does not contain the violating event")
	}
}
