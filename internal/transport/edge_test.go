package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"testing"
	"time"
)

// TestHubFullInboxDoesNotDeadlock floods a buffer-1 endpoint well past
// capacity: sends must stay non-blocking (overflow drops) and Close must
// not deadlock behind a blocked deliver. Regression test for deliver()
// sending on the inbox while holding the endpoint lock.
func TestHubFullInboxDoesNotDeadlock(t *testing.T) {
	hub := NewHub()
	a, err := hub.Endpoint("a", 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hub.Endpoint("b", 1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ { // nobody drains b; inbox fills at 1
			if err := a.Send("b", Message{Type: "flood"}); err != nil {
				t.Error(err)
				return
			}
		}
		if err := b.Close(); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("hub send/close deadlocked on a full inbox")
	}
}

// dialRaw writes raw bytes straight at a node's listener, bypassing Send.
func dialRaw(t *testing.T, addr string, raw []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
}

func recvOne(t *testing.T, ch <-chan Message, want string) {
	t.Helper()
	select {
	case msg := <-ch:
		if msg.Type != want {
			t.Fatalf("received %q, want %q", msg.Type, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("message %q never delivered", want)
	}
}

// TestTCPOversizedFrame sends a frame larger than the 4 MiB scanner
// buffer: the connection is aborted and counted, and the node keeps
// serving fresh connections afterwards.
func TestTCPOversizedFrame(t *testing.T) {
	node, err := NewTCPNode("n", "127.0.0.1:0", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	before := mFrameOverrun.Value()

	huge := bytes.Repeat([]byte("x"), 5*1024*1024) // > 4 MiB, no newline
	dialRaw(t, node.Addr(), huge)

	// The overflow is detected when the reader gives up on the stream.
	deadline := time.Now().Add(5 * time.Second)
	for mFrameOverrun.Value() == before {
		if time.Now().After(deadline) {
			t.Fatal("oversized frame never counted")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The node still accepts and parses subsequent connections.
	peer, err := NewTCPNode("peer", "127.0.0.1:0", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	peer.RegisterPeer("n", node.Addr())
	if err := peer.Send("n", Message{Type: "after-overflow"}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, node.Receive(), "after-overflow")
}

// TestTCPTornWriteThenReconnect delivers a half frame (write cut without
// the newline terminator), then a valid frame on a fresh connection: the
// torn bytes are counted as a malformed frame and the clean retry lands.
func TestTCPTornWriteThenReconnect(t *testing.T) {
	node, err := NewTCPNode("n", "127.0.0.1:0", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	before := mFrameMalform.Value()

	full, err := json.Marshal(Message{From: "peer", Type: "torn"})
	if err != nil {
		t.Fatal(err)
	}
	dialRaw(t, node.Addr(), full[:len(full)/2]) // torn mid-frame, conn closed

	deadline := time.Now().Add(5 * time.Second)
	for mFrameMalform.Value() == before {
		if time.Now().After(deadline) {
			t.Fatal("torn frame never counted as malformed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Peer reconnects and resends the full frame.
	peer, err := NewTCPNode("peer", "127.0.0.1:0", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	peer.RegisterPeer("n", node.Addr())
	if err := peer.Send("n", Message{Type: "torn"}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, node.Receive(), "torn")
}

// TestTCPSendToRestartedPeer closes a peer, re-listens on the same
// address under a fresh node, and sends again: the sender's bounded
// retries bridge the restart gap without re-registration.
func TestTCPSendToRestartedPeer(t *testing.T) {
	sender, err := NewTCPNode("sender", "127.0.0.1:0", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	first, err := NewTCPNode("peer", "127.0.0.1:0", 8)
	if err != nil {
		t.Fatal(err)
	}
	addr := first.Addr()
	sender.RegisterPeer("peer", addr)
	if err := sender.Send("peer", Message{Type: "before"}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, first.Receive(), "before")
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	// While the peer is down, a send eventually errors out.
	sender.sendAttempts, sender.sendBackoff = 2, time.Millisecond
	if err := sender.Send("peer", Message{Type: "into-the-void"}); err == nil {
		t.Fatal("send to downed peer succeeded")
	}

	// Restart on the same address; generous retries cover the race where
	// the new listener is still coming up.
	second, err := NewTCPNode("peer", addr, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	sender.sendAttempts, sender.sendBackoff = 5, 20*time.Millisecond
	if err := sender.Send("peer", Message{Type: "after-restart"}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, second.Receive(), "after-restart")
}

// TestTCPSendRetriesBridgeLateListener starts the target listener only
// after the first attempts have failed; the retry loop lands the frame.
func TestTCPSendRetriesBridgeLateListener(t *testing.T) {
	sender, err := NewTCPNode("sender", "127.0.0.1:0", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	// Reserve an address, then free it so the first dial attempts fail.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	_ = probe.Close()
	sender.RegisterPeer("late", addr)
	sender.sendAttempts, sender.sendBackoff = 10, 30*time.Millisecond

	started := make(chan *TCPNode, 1)
	go func() {
		time.Sleep(60 * time.Millisecond) // let the first attempts fail
		node, err := NewTCPNode("late", addr, 8)
		if err != nil {
			started <- nil
			return
		}
		started <- node
	}()
	err = sender.Send("late", Message{Type: "persistent"})
	late := <-started
	if late == nil {
		t.Skip("could not re-bind probe address")
	}
	defer late.Close()
	if err != nil {
		t.Fatalf("send across late listener start: %v", err)
	}
	recvOne(t, late.Receive(), "persistent")
}

// TestAwaitPeersBoundedByContext: AwaitPeers returns once a late peer
// binds, and gives up with ctx's error while a peer never does.
func TestAwaitPeersBoundedByContext(t *testing.T) {
	mesh, err := LoopbackMesh([]string{"a", "b"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	a := mesh[0]
	defer a.Close()
	addr := mesh[1].Addr()
	mesh[1].Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := a.AwaitPeers(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AwaitPeers with b down: err = %v, want the deadline", err)
	}

	started := make(chan *TCPNode, 1)
	go func() {
		time.Sleep(60 * time.Millisecond)
		node, _ := NewTCPNode("b", addr, 8) // nil if the address was taken meanwhile
		started <- node
	}()
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = a.AwaitPeers(ctx)
	b := <-started
	if b == nil {
		t.Skip("could not re-bind b's address")
	}
	defer b.Close()
	if err != nil {
		t.Fatalf("AwaitPeers across b's late start: %v", err)
	}
}
