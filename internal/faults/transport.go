package faults

import (
	"fmt"

	"tradefl/internal/obs"
	"tradefl/internal/transport"
)

var fLog = obs.Component("faults")

// faultyTransport injects the plan's message faults between a Transport
// and the network. The wrapper sits on the send side only: Receive and
// Close pass straight through, so a wrapped endpoint can always drain its
// inbox and shut down cleanly.
type faultyTransport struct {
	inner transport.Transport
	inj   *Injector
}

var _ transport.Transport = (*faultyTransport)(nil)

// Wrap returns tr with the injector's fault schedule applied to every
// Send. Wrap every endpoint of a ring with the same injector so crash
// windows and partitions are consistent across observers.
func (inj *Injector) Wrap(tr transport.Transport) transport.Transport {
	return &faultyTransport{inner: tr, inj: inj}
}

func (f *faultyTransport) Name() string { return f.inner.Name() }

func (f *faultyTransport) Receive() <-chan transport.Message { return f.inner.Receive() }

func (f *faultyTransport) Close() error { return f.inner.Close() }

func (f *faultyTransport) Send(to string, msg transport.Message) error {
	from := f.inner.Name()
	// Crash windows make the endpoint unreachable in both directions, as
	// its peers would observe a crashed process.
	if f.inj.crashed(from) {
		f.inj.count(func(c *Counts) { c.CrashRejects++ })
		return fmt.Errorf("%w: endpoint %q is crashed", ErrInjected, from)
	}
	if f.inj.crashed(to) {
		f.inj.count(func(c *Counts) { c.CrashRejects++ })
		return fmt.Errorf("%w: endpoint %q is crashed", ErrInjected, to)
	}
	if f.inj.partitioned(from, to) {
		f.inj.count(func(c *Counts) { c.Partitioned++ })
		obs.FlightRecord("faults", "partition", from+">"+to)
		return fmt.Errorf("%w: link %s>%s partitioned", ErrInjected, from, to)
	}
	d := f.inj.decide(from + ">" + to)
	if d.drop {
		// Loss in flight: the sender believes the send succeeded.
		f.inj.count(func(c *Counts) { c.Dropped++ })
		obs.FlightRecord("faults", "drop", fmt.Sprintf("%s>%s type=%s", from, to, msg.Type))
		fLog.Debug("dropped message", "from", from, "to", to, "type", msg.Type)
		return nil
	}
	if d.delay > 0 {
		// Hold the message back asynchronously; it reorders behind
		// anything sent meanwhile. The sender sees success, as a network
		// would report.
		f.inj.count(func(c *Counts) { c.Delayed++ })
		obs.FlightRecord("faults", "delay", fmt.Sprintf("%s>%s type=%s delay=%s", from, to, msg.Type, d.delay))
		f.inj.wg.Add(1)
		go func() {
			defer f.inj.wg.Done()
			f.inj.sleep(d.delay)
			if err := f.inner.Send(to, msg); err != nil {
				fLog.Debug("delayed delivery failed", "from", from, "to", to, "err", err)
			}
			if d.dup {
				f.inj.count(func(c *Counts) { c.Duplicated++ })
				_ = f.inner.Send(to, msg)
			}
		}()
		return nil
	}
	if err := f.inner.Send(to, msg); err != nil {
		return err
	}
	if d.dup {
		f.inj.count(func(c *Counts) { c.Duplicated++ })
		obs.FlightRecord("faults", "dup", fmt.Sprintf("%s>%s type=%s", from, to, msg.Type))
		fLog.Debug("duplicated message", "from", from, "to", to, "type", msg.Type)
		_ = f.inner.Send(to, msg)
	}
	return nil
}
