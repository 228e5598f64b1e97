// Package transport provides the message-passing fabric the distributed
// DBR engine runs on: a process-local in-memory hub for simulations and
// tests, and a TCP implementation (length-delimited JSON frames) for true
// multi-process deployments. Both implement the same Transport interface,
// so the DBR protocol code is identical in either setting — matching the
// paper's claim that organizations decide autonomously "without the need
// for interaction with a central parameter server".
package transport

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"tradefl/internal/obs"
)

// Message is one unit of protocol traffic.
type Message struct {
	// From names the sending endpoint.
	From string `json:"from"`
	// Type tags the protocol message kind.
	Type string `json:"type"`
	// Trace optionally carries distributed-trace propagation context; the
	// fabric forwards it opaquely (duplicated or replayed frames carry the
	// same context, so receiver-side dedup also dedups trace continuation).
	Trace *obs.TraceContext `json:"trace,omitempty"`
	// Payload carries the JSON-encoded protocol body.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Transport is a named endpoint that can send to peers and receive.
type Transport interface {
	// Name returns this endpoint's name.
	Name() string
	// Send delivers msg to the named peer.
	Send(to string, msg Message) error
	// Receive returns the channel of inbound messages. It is closed when
	// the transport closes.
	Receive() <-chan Message
	// Close releases resources and closes the receive channel.
	Close() error
}

// ErrUnknownPeer is returned when sending to an unregistered endpoint.
var ErrUnknownPeer = errors.New("transport: unknown peer")

// ErrClosed is returned when using a closed transport.
var ErrClosed = errors.New("transport: closed")

// Hub is an in-memory switchboard connecting named endpoints.
type Hub struct {
	mu        sync.RWMutex
	endpoints map[string]*hubEndpoint
}

// NewHub creates an empty hub.
func NewHub() *Hub {
	return &Hub{endpoints: make(map[string]*hubEndpoint)}
}

// Endpoint registers (or returns an error for a duplicate) a named
// endpoint with the given inbound buffer size.
func (h *Hub) Endpoint(name string, buffer int) (Transport, error) {
	if buffer < 1 {
		buffer = 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.endpoints[name]; dup {
		return nil, fmt.Errorf("transport: duplicate endpoint %q", name)
	}
	ep := &hubEndpoint{hub: h, name: name, inbox: make(chan Message, buffer)}
	h.endpoints[name] = ep
	return ep, nil
}

type hubEndpoint struct {
	hub    *Hub
	name   string
	inbox  chan Message
	mu     sync.Mutex
	closed bool
}

var _ Transport = (*hubEndpoint)(nil)

func (e *hubEndpoint) Name() string { return e.name }

func (e *hubEndpoint) Send(to string, msg Message) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.mu.Unlock()
	msg.From = e.name
	e.hub.mu.RLock()
	peer, ok := e.hub.endpoints[to]
	e.hub.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownPeer, to)
	}
	peer.deliver(msg)
	return nil
}

// deliver enqueues msg unless the peer has closed. The send is
// non-blocking while the lock is held: a blocking send here would wedge
// the sender inside the peer's lock as soon as the inbox filled, and any
// later Close() would deadlock behind it. A full inbox drops instead,
// mirroring the TCP path; ring protocols resend on timeout.
func (e *hubEndpoint) deliver(msg Message) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	select {
	case e.inbox <- msg:
	default:
		tLog.Debug("hub inbox full, dropping", "to", e.name, "from", msg.From, "type", msg.Type)
	}
}

func (e *hubEndpoint) Receive() <-chan Message { return e.inbox }

func (e *hubEndpoint) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	close(e.inbox)
	e.hub.mu.Lock()
	delete(e.hub.endpoints, e.name)
	e.hub.mu.Unlock()
	return nil
}

// TCPNode is a Transport over TCP with one listener per endpoint and
// newline-delimited JSON frames. Peers are registered by name → address.
type TCPNode struct {
	name  string
	ln    net.Listener
	inbox chan Message

	mu     sync.Mutex
	peers  map[string]string
	closed bool
	wg     sync.WaitGroup

	// Send retry policy; see SetSendRetryPolicy.
	sendAttempts int
	sendBackoff  time.Duration
}

var _ Transport = (*TCPNode)(nil)

// Default send retry policy: a failed dial or write is retried twice more
// with a short linear backoff before Send reports the peer unreachable.
const (
	DefaultSendAttempts = 3
	DefaultSendBackoff  = 25 * time.Millisecond
)

// NewTCPNode listens on addr ("127.0.0.1:0" for an ephemeral port).
func NewTCPNode(name, addr string, buffer int) (*TCPNode, error) {
	if buffer < 1 {
		buffer = 64
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	n := &TCPNode{
		name:         name,
		ln:           ln,
		inbox:        make(chan Message, buffer),
		peers:        make(map[string]string),
		sendAttempts: DefaultSendAttempts,
		sendBackoff:  DefaultSendBackoff,
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// SetSendRetryPolicy bounds Send's dial/write retries: attempts total
// tries (minimum 1) separated by backoff×attempt. A restarting peer
// (crash + re-listen on the same address) is reached again without the
// caller seeing a transient refusal.
func (n *TCPNode) SetSendRetryPolicy(attempts int, backoff time.Duration) {
	if attempts < 1 {
		attempts = 1
	}
	if backoff < 0 {
		backoff = 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sendAttempts = attempts
	n.sendBackoff = backoff
}

// Addr returns the node's listen address for peer registration.
func (n *TCPNode) Addr() string { return n.ln.Addr().String() }

// RegisterPeer maps a peer name to its listen address.
func (n *TCPNode) RegisterPeer(name, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers[name] = addr
}

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.wg.Add(1)
		go n.readConn(conn)
	}
}

func (n *TCPNode) readConn(conn net.Conn) {
	defer n.wg.Done()
	defer conn.Close()
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for scanner.Scan() {
		var msg Message
		if err := json.Unmarshal(scanner.Bytes(), &msg); err != nil {
			// Malformed frame (torn write, garbage peer): account for it
			// so chaos runs can tell parser loss from injected loss.
			mFrameMalform.Inc()
			tLog.Debug("dropping malformed frame", "node", n.name, "bytes", len(scanner.Bytes()), "err", err)
			continue
		}
		n.mu.Lock()
		closed := n.closed
		n.mu.Unlock()
		if closed {
			return
		}
		select {
		case n.inbox <- msg:
		default:
			// Inbox full: drop rather than deadlock the reader; the DBR
			// protocol is token-based and resends on timeout.
			mInboxDropped.Inc()
			tLog.Debug("inbox full, dropping frame", "node", n.name, "from", msg.From, "type", msg.Type)
		}
	}
	if err := scanner.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			// A frame larger than the scanner buffer kills the connection;
			// the rest of that connection's stream is lost with it.
			mFrameOverrun.Inc()
			tLog.Debug("dropping connection on oversized frame", "node", n.name, "err", err)
			return
		}
		tLog.Debug("connection read error", "node", n.name, "err", err)
	}
}

func (n *TCPNode) Name() string { return n.name }

// Send dials the peer and writes one frame. Dial-per-message keeps the
// implementation simple and robust for the protocol's low message rate:
// a torn write only poisons its own connection, never a shared stream.
// Transient dial/write failures (peer restarting, kernel backlog full)
// are retried per the node's retry policy before the peer is reported
// unreachable.
func (n *TCPNode) Send(to string, msg Message) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	addr, ok := n.peers[to]
	attempts, backoff := n.sendAttempts, n.sendBackoff
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownPeer, to)
	}
	msg.From = n.name
	raw, err := json.Marshal(msg)
	if err != nil {
		return fmt.Errorf("transport: marshal: %w", err)
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			obs.FlightRecord("transport", "send-retry",
				fmt.Sprintf("%s->%s attempt %d: %v", n.name, to, attempt+1, lastErr))
			tLog.Debug("retrying send", "node", n.name, "to", to, "attempt", attempt+1, "err", lastErr)
			time.Sleep(backoff * time.Duration(attempt))
			// The node may have closed while we were backing off.
			n.mu.Lock()
			closed := n.closed
			n.mu.Unlock()
			if closed {
				return ErrClosed
			}
		}
		if lastErr = n.writeFrame(addr, to, raw); lastErr == nil {
			return nil
		}
	}
	obs.FlightRecord("transport", "send-failed",
		fmt.Sprintf("%s->%s after %d attempts: %v", n.name, to, attempts, lastErr))
	return lastErr
}

// writeFrame performs one dial + write attempt.
func (n *TCPNode) writeFrame(addr, to string, raw []byte) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("transport: dial %s: %w", to, err)
	}
	defer conn.Close()
	if err := conn.SetWriteDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return err
	}
	if _, err := conn.Write(append(raw, '\n')); err != nil {
		return fmt.Errorf("transport: write to %s: %w", to, err)
	}
	return nil
}

func (n *TCPNode) Receive() <-chan Message { return n.inbox }

// Close stops the listener, waits for reader goroutines and closes the
// inbox.
func (n *TCPNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	err := n.ln.Close()
	n.wg.Wait()
	close(n.inbox)
	return err
}
