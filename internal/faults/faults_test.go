package faults

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tradefl/internal/transport"
)

func mustInjector(t *testing.T, p Plan) *Injector {
	t.Helper()
	inj, err := NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// fateString runs n messages through a fresh injector's decide stream for
// one lane and renders each fate as a letter.
func fateString(t *testing.T, p Plan, lane string, n int) string {
	t.Helper()
	inj := mustInjector(t, p)
	var b strings.Builder
	for i := 0; i < n; i++ {
		d := inj.decide(lane)
		switch {
		case d.drop:
			b.WriteByte('D')
		case d.dup:
			b.WriteByte('2')
		case d.delay > 0:
			b.WriteByte('d')
		default:
			b.WriteByte('.')
		}
	}
	return b.String()
}

func TestDeterministicSchedule(t *testing.T) {
	p := Plan{Seed: 42, Drop: 0.3, Dup: 0.1, DelayProb: 0.2}
	a := fateString(t, p, "org-0>org-1", 200)
	b := fateString(t, p, "org-0>org-1", 200)
	if a != b {
		t.Fatalf("same seed produced different schedules:\n%s\n%s", a, b)
	}
	if !strings.ContainsAny(a, "D2d") {
		t.Error("no faults drawn at 30/10/20% rates over 200 messages")
	}
	other := fateString(t, Plan{Seed: 43, Drop: 0.3, Dup: 0.1, DelayProb: 0.2}, "org-0>org-1", 200)
	if a == other {
		t.Error("different seeds produced identical schedules")
	}
	// Lanes are independent streams: a different link gets a different
	// schedule from the same seed.
	lane2 := fateString(t, p, "org-1>org-2", 200)
	if a == lane2 {
		t.Error("two lanes share one schedule")
	}
}

func TestLaneOrderIndependence(t *testing.T) {
	// Interleaving draws on another lane must not shift this lane's stream.
	p := Plan{Seed: 7, Drop: 0.5}
	solo := fateString(t, p, "a>b", 50)
	inj := mustInjector(t, p)
	var b strings.Builder
	for i := 0; i < 50; i++ {
		inj.decide("x>y") // noise on a different lane
		if d := inj.decide("a>b"); d.drop {
			b.WriteByte('D')
		} else {
			b.WriteByte('.')
		}
		inj.decide("p>q")
	}
	if solo != b.String() {
		t.Error("interleaved draws on other lanes perturbed a lane's schedule")
	}
}

func TestWrapDropAndDuplicate(t *testing.T) {
	hub := transport.NewHub()
	a, err := hub.Endpoint("a", 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hub.Endpoint("b", 1024)
	if err != nil {
		t.Fatal(err)
	}
	inj := mustInjector(t, Plan{Seed: 1, Drop: 0.5})
	fa := inj.Wrap(a)
	const n = 200
	for i := 0; i < n; i++ {
		if err := fa.Send("b", transport.Message{Type: "t"}); err != nil {
			t.Fatal(err)
		}
	}
	inj.Close()
	got := drain(b.Receive())
	c := inj.Counts()
	if c.Dropped == 0 {
		t.Fatal("no drops at 50%")
	}
	if int64(got)+c.Dropped != n {
		t.Errorf("delivered %d + dropped %d != sent %d", got, c.Dropped, n)
	}

	// Duplication adds deliveries.
	hub2 := transport.NewHub()
	a2, _ := hub2.Endpoint("a", 64)
	b2, _ := hub2.Endpoint("b", 1024)
	inj2 := mustInjector(t, Plan{Seed: 1, Dup: 0.5})
	fa2 := inj2.Wrap(a2)
	for i := 0; i < n; i++ {
		if err := fa2.Send("b", transport.Message{Type: "t"}); err != nil {
			t.Fatal(err)
		}
	}
	inj2.Close()
	got2 := drain(b2.Receive())
	c2 := inj2.Counts()
	if c2.Duplicated == 0 {
		t.Fatal("no duplicates at 50%")
	}
	if int64(got2) != n+c2.Duplicated {
		t.Errorf("delivered %d, want %d sent + %d dups", got2, n, c2.Duplicated)
	}
}

func drain(ch <-chan transport.Message) int {
	count := 0
	for {
		select {
		case <-ch:
			count++
		default:
			return count
		}
	}
}

func TestWrapDelayReordersButDelivers(t *testing.T) {
	hub := transport.NewHub()
	a, _ := hub.Endpoint("a", 8)
	b, _ := hub.Endpoint("b", 256)
	inj := mustInjector(t, Plan{Seed: 3, DelayProb: 0.5, DelayMin: time.Millisecond, DelayMax: 5 * time.Millisecond})
	fa := inj.Wrap(a)
	const n = 50
	for i := 0; i < n; i++ {
		if err := fa.Send("b", transport.Message{Type: "t"}); err != nil {
			t.Fatal(err)
		}
	}
	inj.Close() // waits for all delayed deliveries
	if got := drain(b.Receive()); got != n {
		t.Errorf("delivered %d/%d with delay-only faults", got, n)
	}
	if inj.Counts().Delayed == 0 {
		t.Error("no delays at 50%")
	}
}

func TestPartitionOneWay(t *testing.T) {
	hub := transport.NewHub()
	a, _ := hub.Endpoint("a", 8)
	b, _ := hub.Endpoint("b", 8)
	inj := mustInjector(t, Plan{Partitions: []Partition{{From: "a", To: "b"}}})
	fa, fb := inj.Wrap(a), inj.Wrap(b)
	if err := fa.Send("b", transport.Message{Type: "t"}); !errors.Is(err, ErrInjected) {
		t.Errorf("a>b err = %v, want ErrInjected", err)
	}
	if err := fb.Send("a", transport.Message{Type: "t"}); err != nil {
		t.Errorf("reverse direction blocked: %v", err)
	}
	if inj.Counts().Partitioned != 1 {
		t.Errorf("partition count = %d", inj.Counts().Partitioned)
	}
}

func TestCrashWindowRejectsBothDirections(t *testing.T) {
	hub := transport.NewHub()
	a, _ := hub.Endpoint("a", 8)
	b, _ := hub.Endpoint("b", 8)
	inj := mustInjector(t, Plan{Crashes: []CrashWindow{{Endpoint: "b", After: 0, Down: 50 * time.Millisecond}}})
	fa, fb := inj.Wrap(a), inj.Wrap(b)
	if err := fa.Send("b", transport.Message{Type: "t"}); !errors.Is(err, ErrInjected) {
		t.Errorf("send to crashed peer: err = %v, want ErrInjected", err)
	}
	if err := fb.Send("a", transport.Message{Type: "t"}); !errors.Is(err, ErrInjected) {
		t.Errorf("send from crashed peer: err = %v, want ErrInjected", err)
	}
	time.Sleep(60 * time.Millisecond) // restart
	if err := fa.Send("b", transport.Message{Type: "t"}); err != nil {
		t.Errorf("send after restart: %v", err)
	}
}

func TestRoundTripperFaults(t *testing.T) {
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		_, _ = io.WriteString(w, "ok")
	}))
	defer srv.Close()

	// Pre-send failure: server never sees the request.
	inj := mustInjector(t, Plan{RPCFail: 1})
	client := &http.Client{Transport: inj.RoundTripper("t", nil)}
	if _, err := client.Get(srv.URL); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Errorf("err = %v, want injected failure", err)
	}
	if hits != 0 {
		t.Errorf("server hit %d times through a failing round tripper", hits)
	}

	// Lost response: server executes, client sees an error.
	inj2 := mustInjector(t, Plan{RPCLost: 1})
	client2 := &http.Client{Transport: inj2.RoundTripper("t", nil)}
	if _, err := client2.Get(srv.URL); !errors.Is(err, ErrInjected) && !strings.Contains(err.Error(), "injected") {
		t.Errorf("err = %v, want lost-response failure", err)
	}
	if hits != 1 {
		t.Errorf("server hits = %d, want 1 (request executed, response lost)", hits)
	}
	if inj2.Counts().RPCLost != 1 {
		t.Errorf("rpc lost count = %d", inj2.Counts().RPCLost)
	}
}

// TestNewInjectorRejectsBadProbability: every probability of a Plan must
// lie in [0,1]; an empty Plan is the valid fault-free schedule.
func TestNewInjectorRejectsBadProbability(t *testing.T) {
	for _, p := range []Plan{{Drop: 1.5}, {Dup: -0.1}, {DelayProb: 2}, {RPCFail: 1.01}, {RPCLost: -1}, {RPCDelayProb: 3}} {
		if _, err := NewInjector(p); err == nil {
			t.Errorf("NewInjector(%+v) accepted", p)
		}
	}
	if _, err := NewInjector(Plan{}); err != nil {
		t.Errorf("empty plan rejected: %v", err)
	}
}
