package dbr

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"tradefl/internal/game"
	"tradefl/internal/obs"
	"tradefl/internal/transport"
)

// Protocol message types of the distributed DBR token ring.
const (
	// MsgToken carries the current strategy profile around the ring; the
	// holder best-responds for its own index and forwards.
	MsgToken = "dbr.token"
	// MsgDone announces convergence with the final profile.
	MsgDone = "dbr.done"
)

// TokenPayload is the body of a MsgToken message.
type TokenPayload struct {
	// Round counts completed ring passes.
	Round int `json:"round"`
	// Seq increases on every hop; nodes ignore tokens whose Seq is not
	// larger than the last one they processed, which makes the crash-
	// recovery resend (at-least-once delivery) idempotent.
	Seq int64 `json:"seq"`
	// Profile is the latest announced strategy of every organization.
	Profile []game.Strategy `json:"profile"`
	// Unchanged counts consecutive ring positions that kept their strategy
	// (including positions skipped as unreachable); the ring terminates
	// when it reaches N — a full silent pass.
	Unchanged int `json:"unchanged"`
}

// DonePayload is the body of a MsgDone message.
type DonePayload struct {
	Profile []game.Strategy `json:"profile"`
	Rounds  int             `json:"rounds"`
}

// Node is one organization in the distributed DBR protocol. Every node
// holds the public game parameters (organizations' profiles, ρ, γ — all
// common knowledge in the mechanism) but decides only its own strategy.
//
// Fault model: with Options.TokenTimeout > 0 the ring tolerates crash
// faults. Forwarding skips unreachable peers (their last announced strategy
// stays frozen in the token), and the last forwarder re-sends the token if
// it hears nothing for the timeout — so a receiver crashing after or before
// processing cannot stall the ring. A false crash suspicion can briefly put
// two tokens in flight; sequence-number deduplication keeps best responses
// idempotent and either token still terminates only after a full silent
// pass.
type Node struct {
	cfg   *game.Config
	eng   *Engine // built once: the node's config never changes
	index int
	tr    transport.Transport
	peers []string // peer transport names, indexed like cfg.Orgs
	opts  Options

	lastProcessedSeq int64
	// lastSent remembers the most recent forwarded token for resend.
	lastSent *sentToken
	// outTrace is the trace context stamped on outgoing frames: the current
	// hop span while one is open (so the next node continues the token's
	// trace), nil when tracing is off. A recovery resend reuses it — the
	// duplicate frame carries the same context and the receiver's Seq dedup
	// drops span creation along with the token.
	outTrace *obs.TraceContext
}

// sentToken records a forwarded token and the ring offset it reached.
type sentToken struct {
	tok TokenPayload
	// step is the ring offset (from this node) of the peer the forward was
	// addressed to; a crash-suspicion resend starts after it.
	step int
	// resends counts token timeouts answered by re-sending to the same
	// peer; once it reaches Options.SuspectAfter the peer is skipped.
	resends int
}

// NewNode creates the node for organization index, communicating over tr.
// peers[i] must name organization i's endpoint (peers[index] = own name).
func NewNode(cfg *game.Config, index int, tr transport.Transport, peers []string, opts Options) (*Node, error) {
	in, err := game.NewInstance(cfg)
	if err != nil {
		return nil, fmt.Errorf("dbr node: %w", err)
	}
	cfg = in.Config()
	if index < 0 || index >= cfg.N() {
		return nil, fmt.Errorf("dbr node: index %d out of range", index)
	}
	if len(peers) != cfg.N() {
		return nil, fmt.Errorf("dbr node: %d peers for %d organizations", len(peers), cfg.N())
	}
	opts, err = opts.withDefaults()
	if err != nil {
		return nil, err
	}
	eng := newEngine()
	eng.load(in)
	return &Node{cfg: cfg, eng: eng, index: index, tr: tr, peers: peers, opts: opts}, nil
}

// Start injects the initial token carrying the trace context of ctx, so
// every ring hop continues the caller's trace across the transport. Call it
// on exactly one node (by convention, node 0).
func (n *Node) Start(ctx context.Context) error {
	start := n.cfg.MinimalProfile()
	payload, err := json.Marshal(TokenPayload{Profile: start, Seq: 1})
	if err != nil {
		return err
	}
	msg := transport.Message{Type: MsgToken, Payload: payload}
	if tc, ok := obs.TraceFromContext(ctx); ok {
		msg.Trace = &tc
	}
	return n.tr.Send(n.tr.Name(), msg)
}

// startHop opens the span covering one token visit: a continuation of the
// trace carried by the frame when present, else a child of this node's
// session span. Called only after Seq dedup — a duplicated or replayed
// frame never opens (and so never double-closes) a hop span.
func (n *Node) startHop(ctx context.Context, remote *obs.TraceContext) *obs.ActiveSpan {
	_, hop := obs.SpanRemote(ctx, "ring.hop", remote)
	if tc, ok := hop.TraceContext(); ok {
		n.outTrace = &tc
	} else {
		n.outTrace = nil
	}
	return hop
}

// Run processes protocol messages until convergence or context
// cancellation, returning the agreed equilibrium profile.
func (n *Node) Run(ctx context.Context) (game.Profile, error) {
	ctx, session := obs.Span(ctx, "ring.node")
	defer session.End()
	defer n.eng.flush()
	for {
		var timeout <-chan time.Time
		var timer *time.Timer
		if n.opts.TokenTimeout > 0 && n.lastSent != nil {
			timer = time.NewTimer(n.opts.TokenTimeout)
			timeout = timer.C
		}
		stop := func() {
			if timer != nil {
				timer.Stop()
			}
		}
		select {
		case <-ctx.Done():
			stop()
			return nil, ctx.Err()
		case <-timeout:
			// Nothing heard since our last forward: suspect the receiver
			// crashed and re-forward past it.
			done, profile, err := n.resendToken()
			if err != nil {
				return nil, err
			}
			if done {
				return profile, nil
			}
		case msg, ok := <-n.tr.Receive():
			stop()
			if !ok {
				return nil, errors.New("dbr node: transport closed")
			}
			switch msg.Type {
			case MsgToken:
				var tok TokenPayload
				if err := json.Unmarshal(msg.Payload, &tok); err != nil {
					return nil, fmt.Errorf("dbr node: bad token: %w", err)
				}
				if tok.Seq <= n.lastProcessedSeq {
					obs.FlightRecord("ring", "dup-token",
						fmt.Sprintf("%s seq=%d last=%d", n.tr.Name(), tok.Seq, n.lastProcessedSeq))
					continue // duplicate from a recovery resend
				}
				hop := n.startHop(ctx, msg.Trace)
				done, profile, err := n.handleToken(tok)
				hop.End()
				if err != nil {
					return nil, err
				}
				if done {
					return profile, nil
				}
			case MsgDone:
				var d DonePayload
				if err := json.Unmarshal(msg.Payload, &d); err != nil {
					return nil, fmt.Errorf("dbr node: bad done: %w", err)
				}
				return game.Profile(d.Profile), nil
			}
		}
	}
}

// handleToken performs this node's best response and forwards the token,
// or broadcasts done on convergence.
func (n *Node) handleToken(tok TokenPayload) (bool, game.Profile, error) {
	if len(tok.Profile) != n.cfg.N() {
		return false, nil, fmt.Errorf("dbr node: token profile has %d entries, want %d", len(tok.Profile), n.cfg.N())
	}
	n.lastProcessedSeq = tok.Seq
	profile := game.Profile(tok.Profile)
	n.eng.Bind(profile)
	next, val, ok := n.eng.BestResponse(n.index, n.opts.DTol)
	if ok && val > n.eng.current(n.index)+n.opts.Tol {
		profile[n.index] = next
		tok.Unchanged = 0
	} else {
		tok.Unchanged++
	}
	tok.Profile = profile
	return n.forwardToken(tok, 1)
}

// resendToken handles a token timeout. A timeout after a successful Send
// is ambiguous: the frame may have been lost in flight (peer fine) or the
// peer may have crashed after receiving it. The first SuspectAfter
// timeouts re-send the identical token to the same peer — harmless if it
// already arrived (Seq dedup) and exactly what is needed if it was lost.
// Only after that many silent retries is the peer suspected crashed and
// the token forwarded past it with its strategy frozen.
func (n *Node) resendToken() (bool, game.Profile, error) {
	sent := n.lastSent
	if sent == nil {
		return false, nil, nil
	}
	target := (n.index + sent.step) % n.cfg.N()
	if sent.resends < n.opts.SuspectAfter {
		payload, err := json.Marshal(sent.tok)
		if err != nil {
			return false, nil, err
		}
		if err := n.tr.Send(n.peers[target], transport.Message{Type: MsgToken, Trace: n.outTrace, Payload: payload}); err == nil {
			sent.resends++
			obs.FlightRecord("ring", "resend",
				fmt.Sprintf("%s->%s seq=%d resend=%d", n.tr.Name(), n.peers[target], sent.tok.Seq, sent.resends))
			dbrLog.Debug("token timeout, resending to same peer",
				"node", n.tr.Name(), "peer", n.peers[target], "seq", sent.tok.Seq, "resend", sent.resends)
			return false, nil, nil
		}
		// The resend itself failed: the peer is unreachable, not merely
		// silent — skip it without burning the remaining retries.
	}
	obs.FlightRecord("ring", "skip-peer",
		fmt.Sprintf("%s suspects %s crashed seq=%d resends=%d", n.tr.Name(), n.peers[target], sent.tok.Seq, sent.resends))
	dbrLog.Debug("suspecting peer crashed, skipping",
		"node", n.tr.Name(), "peer", n.peers[target], "seq", sent.tok.Seq, "resends", sent.resends)
	skip := sent.tok
	skip.Unchanged++ // the skipped peer's strategy is frozen, i.e. unchanged
	return n.forwardToken(skip, sent.step+1)
}

// forwardToken walks the ring starting at the given offset from this node,
// skipping unreachable peers (each skip counts as an unchanged position),
// and broadcasts done when the token shows a full silent pass, the round
// budget is exhausted, or every other peer is unreachable.
func (n *Node) forwardToken(tok TokenPayload, fromStep int) (bool, game.Profile, error) {
	size := n.cfg.N()
	for step := fromStep; ; step++ {
		if tok.Unchanged >= size || tok.Round >= n.opts.MaxRounds || step > size {
			// Converged, budget exhausted, or nobody else reachable.
			return true, game.Profile(tok.Profile), n.broadcastDone(tok)
		}
		target := (n.index + step) % size
		if target == 0 {
			tok.Round++
			if tok.Round >= n.opts.MaxRounds {
				return true, game.Profile(tok.Profile), n.broadcastDone(tok)
			}
		}
		if target == n.index {
			continue // never self-deliver during a walk
		}
		hop := tok
		hop.Seq = tok.Seq + int64(step)
		payload, err := json.Marshal(hop)
		if err != nil {
			return false, nil, err
		}
		if err := n.tr.Send(n.peers[target], transport.Message{Type: MsgToken, Trace: n.outTrace, Payload: payload}); err != nil {
			// Peer unreachable: freeze its strategy and walk on.
			obs.FlightRecord("ring", "skip-peer",
				fmt.Sprintf("%s cannot reach %s seq=%d: %v", n.tr.Name(), n.peers[target], hop.Seq, err))
			tok.Unchanged++
			continue
		}
		n.lastSent = &sentToken{tok: hop, step: step}
		return false, nil, nil
	}
}

// broadcastDone announces the final profile to every reachable peer.
func (n *Node) broadcastDone(tok TokenPayload) error {
	payload, err := json.Marshal(DonePayload{Profile: tok.Profile, Rounds: tok.Round})
	if err != nil {
		return err
	}
	for i, peer := range n.peers {
		if i == n.index {
			continue
		}
		// Unreachable peers are tolerated: they are presumed crashed.
		_ = n.tr.Send(peer, transport.Message{Type: MsgDone, Trace: n.outTrace, Payload: payload})
	}
	return nil
}

// PeerNames returns the endpoint names org-0 … org-(n-1) that a ring of n
// organizations addresses each other by.
func PeerNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("org-%d", i)
	}
	return names
}

// RunRing runs the protocol with one Node per endpoint, concurrently:
// trs[i] is organization i's transport, and its Name is the peer name the
// other nodes address it by. Node 0 injects the token carrying ctx's trace.
// RunRing returns once every node has returned, with the profile they all
// agreed on; the caller owns and closes trs.
func RunRing(ctx context.Context, cfg *game.Config, trs []transport.Transport, opts Options) (game.Profile, error) {
	if len(trs) == 0 || len(trs) != cfg.N() {
		return nil, fmt.Errorf("dbr ring: %d endpoints for %d organizations", len(trs), cfg.N())
	}
	peers := make([]string, len(trs))
	for i, tr := range trs {
		peers[i] = tr.Name()
	}
	nodes := make([]*Node, len(trs))
	for i, tr := range trs {
		node, err := NewNode(cfg, i, tr, peers, opts)
		if err != nil {
			return nil, err
		}
		nodes[i] = node
	}
	// The token waits in node 0's inbox until its node runs.
	if err := nodes[0].Start(ctx); err != nil {
		return nil, err
	}
	results := make([]game.Profile, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = node.Run(ctx)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
	}
	for i := 1; i < len(results); i++ {
		if !slices.Equal(results[i], results[0]) {
			return nil, fmt.Errorf("node %d disagrees with node 0", i)
		}
	}
	return results[0], nil
}

// SolveDistributed runs the full protocol in-process over an in-memory hub,
// one goroutine per organization, and returns the agreed profile.
func SolveDistributed(ctx context.Context, cfg *game.Config, opts Options) (game.Profile, error) {
	hub := transport.NewHub()
	trs := make([]transport.Transport, cfg.N())
	for i, name := range PeerNames(cfg.N()) {
		tr, err := hub.Endpoint(name, cfg.N()+2)
		if err != nil {
			return nil, err
		}
		defer tr.Close()
		trs[i] = tr
	}
	profile, err := RunRing(ctx, cfg, trs, opts)
	if err != nil {
		return nil, fmt.Errorf("dbr distributed: %w", err)
	}
	return profile, nil
}
