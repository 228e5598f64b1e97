// Package faults is TradeFL's deterministic fault-injection fabric. It
// wraps the two communication paths the distributed pieces depend on — the
// transport.Transport fabric the DBR token ring runs on, and the HTTP
// round-trip the chain RPC client uses — and injects message loss, delay,
// duplication, one-way partitions, scheduled endpoint crashes and RPC
// failures according to a Plan.
//
// It is test support, as net/http/httptest is in the standard library:
// only _test.go files import it (the root TestExportCensus fails any other
// importer), and a Plan literal in a test is the whole fault schedule.
//
// Determinism: every probabilistic decision is drawn from a per-link
// ("lane") random stream seeded with Plan.Seed XOR FNV-1a(lane name), and
// a message's fate consumes a fixed number of draws. The k-th message on a
// given directed link therefore meets exactly the same fate on every run
// with the same seed, independent of goroutine scheduling across links —
// which is what lets a chaos soak (the internal/chaos tests) reproduce a
// failing schedule from its test name alone. Wall-clock effects (how long
// a delayed message is in flight relative to protocol timeouts) remain
// machine-dependent; the protocols under test are required to converge to
// the same result regardless.
package faults

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"
)

// ErrInjected marks every failure this package fabricates, so tests and
// retry loops can tell injected faults from organic ones with errors.Is.
var ErrInjected = errors.New("faults: injected failure")

// Partition blocks the directed link From → To (sends fail as if the
// network dropped the route). Add both directions for a full partition.
type Partition struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// CrashWindow takes Endpoint off the network for [After, After+Down)
// measured from injector creation; Down = 0 keeps it down forever. While
// down, sends from and to the endpoint fail — modeling a crashed process
// as seen by its peers. Restart is implicit at the end of the window.
type CrashWindow struct {
	Endpoint string        `json:"endpoint"`
	After    time.Duration `json:"after"`
	Down     time.Duration `json:"down"`
}

// Plan is the full fault schedule of one injector.
type Plan struct {
	// Seed drives every probabilistic decision. Same seed, same schedule.
	Seed int64
	// Drop is the probability a transport message is silently lost.
	Drop float64
	// Dup is the probability a delivered message is delivered twice.
	Dup float64
	// DelayProb is the probability a message is held back before delivery
	// for a uniform duration in [DelayMin, DelayMax] (defaults 1ms..50ms
	// when unset). Delayed messages naturally reorder behind later sends.
	DelayProb float64
	DelayMin  time.Duration
	DelayMax  time.Duration
	// Partitions lists one-way blocked links.
	Partitions []Partition
	// Crashes schedules endpoint down-windows.
	Crashes []CrashWindow
	// RPCFail is the probability an HTTP round trip fails before reaching
	// the server (connection refused / reset).
	RPCFail float64
	// RPCLost is the probability a round trip reaches the server but the
	// response is lost — the request WAS executed. This is the case that
	// forces idempotent retry handling (chain.Client SubmitTx dedup).
	RPCLost float64
	// RPCDelayProb delays a round trip by a uniform duration in
	// [DelayMin, DelayMax] before it is sent.
	RPCDelayProb float64
}

func (p Plan) withDefaults() Plan {
	if p.DelayMin <= 0 {
		p.DelayMin = time.Millisecond
	}
	if p.DelayMax < p.DelayMin {
		p.DelayMax = 50 * time.Millisecond
		if p.DelayMax < p.DelayMin {
			p.DelayMax = p.DelayMin
		}
	}
	return p
}

// Validate reports the first out-of-range field.
func (p Plan) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Drop", p.Drop}, {"Dup", p.Dup}, {"DelayProb", p.DelayProb},
		{"RPCFail", p.RPCFail}, {"RPCLost", p.RPCLost}, {"RPCDelayProb", p.RPCDelayProb},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("faults: %s = %v outside [0,1]", f.name, f.v)
		}
	}
	return nil
}

// Counts is a snapshot of the faults an injector has delivered so far.
type Counts struct {
	Dropped      int64 `json:"dropped"`
	Duplicated   int64 `json:"duplicated"`
	Delayed      int64 `json:"delayed"`
	Partitioned  int64 `json:"partitioned"`
	CrashRejects int64 `json:"crashRejects"`
	RPCFailures  int64 `json:"rpcFailures"`
	RPCLost      int64 `json:"rpcLost"`
	RPCDelayed   int64 `json:"rpcDelayed"`
}

// Total sums every injected fault.
func (c Counts) Total() int64 {
	return c.Dropped + c.Duplicated + c.Delayed + c.Partitioned +
		c.CrashRejects + c.RPCFailures + c.RPCLost + c.RPCDelayed
}

// Injector executes a Plan. One injector is shared by every wrapped
// transport and round tripper of a chaos run so crash windows and
// partitions are globally consistent.
type Injector struct {
	plan  Plan
	epoch time.Time

	mu     sync.Mutex
	lanes  map[string]*lane
	counts Counts

	wg sync.WaitGroup // in-flight delayed deliveries
}

// lane is one directed link's private random stream. Decisions are drawn
// under the lane lock in per-lane message order.
type lane struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewInjector builds an injector for the plan. The crash-window clock
// starts now.
func NewInjector(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		plan:  plan.withDefaults(),
		epoch: time.Now(),
		lanes: make(map[string]*lane),
	}, nil
}

// Counts returns a snapshot of the faults injected so far.
func (inj *Injector) Counts() Counts {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.counts
}

// Close waits for every in-flight delayed delivery to finish (or fail).
func (inj *Injector) Close() { inj.wg.Wait() }

// sleep blocks for d; a seam for tests that want a fake clock later.
func (inj *Injector) sleep(d time.Duration) { time.Sleep(d) }

// laneFor returns (creating on first use) the named link's random stream,
// seeded with Plan.Seed XOR FNV-1a(name).
func (inj *Injector) laneFor(name string) *lane {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	l, ok := inj.lanes[name]
	if !ok {
		h := fnv.New64a()
		_, _ = h.Write([]byte(name))
		l = &lane{rng: rand.New(rand.NewSource(inj.plan.Seed ^ int64(h.Sum64())))}
		inj.lanes[name] = l
	}
	return l
}

func (inj *Injector) count(f func(*Counts)) {
	inj.mu.Lock()
	f(&inj.counts)
	inj.mu.Unlock()
}

// decision is one transport message's fate.
type decision struct {
	drop  bool
	dup   bool
	delay time.Duration
}

// decide draws a message's fate from its lane. Exactly four draws are
// consumed per message regardless of the outcome, keeping the stream
// aligned across runs.
func (inj *Injector) decide(laneName string) decision {
	l := inj.laneFor(laneName)
	l.mu.Lock()
	defer l.mu.Unlock()
	p := inj.plan
	var d decision
	d.drop = l.rng.Float64() < p.Drop
	d.dup = l.rng.Float64() < p.Dup
	delayRoll := l.rng.Float64() < p.DelayProb
	frac := l.rng.Float64()
	if delayRoll {
		d.delay = p.DelayMin + time.Duration(frac*float64(p.DelayMax-p.DelayMin))
	}
	return d
}

// rpcDecision is one HTTP round trip's fate.
type rpcDecision struct {
	fail  bool
	lost  bool
	delay time.Duration
}

// decideRPC draws a round trip's fate (four draws, fixed).
func (inj *Injector) decideRPC(laneName string) rpcDecision {
	l := inj.laneFor(laneName)
	l.mu.Lock()
	defer l.mu.Unlock()
	p := inj.plan
	var d rpcDecision
	d.fail = l.rng.Float64() < p.RPCFail
	d.lost = l.rng.Float64() < p.RPCLost
	delayRoll := l.rng.Float64() < p.RPCDelayProb
	frac := l.rng.Float64()
	if delayRoll {
		d.delay = p.DelayMin + time.Duration(frac*float64(p.DelayMax-p.DelayMin))
	}
	return d
}

// crashed reports whether endpoint is inside a down-window right now.
func (inj *Injector) crashed(endpoint string) bool {
	elapsed := time.Since(inj.epoch)
	for _, c := range inj.plan.Crashes {
		if c.Endpoint != endpoint {
			continue
		}
		if elapsed < c.After {
			continue
		}
		if c.Down == 0 || elapsed < c.After+c.Down {
			return true
		}
	}
	return false
}

// partitioned reports whether the directed link from → to is blocked.
func (inj *Injector) partitioned(from, to string) bool {
	for _, p := range inj.plan.Partitions {
		if p.From == from && p.To == to {
			return true
		}
	}
	return false
}
