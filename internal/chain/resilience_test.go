package chain

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// rpcFixtureOpts is rpcFixture with explicit client options.
func rpcFixtureOpts(t *testing.T, opts ClientOptions) (*fixture, *Client) {
	t.Helper()
	f, base := rpcFixture(t)
	addr := base.url[len("http://") : len(base.url)-len("/rpc")]
	return f, NewClientOpts(addr, opts)
}

// TestClientConcurrentCalls hammers one client from many goroutines; run
// under -race it guards the request-id counter and jitter stream against
// the data race the old `c.id++` had.
func TestClientConcurrentCalls(t *testing.T) {
	_, client := rpcFixture(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var h uint64
				if err := client.Call(MethodHeight, nil, &h); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// failNTransport fails the first n round trips with a transport error,
// then delegates to the real network.
type failNTransport struct {
	n     atomic.Int64
	calls atomic.Int64
}

func (ft *failNTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ft.calls.Add(1)
	if ft.n.Add(-1) >= 0 {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errors.New("failN: connection refused")
	}
	return http.DefaultTransport.RoundTrip(req)
}

func TestClientRetriesTransportFailures(t *testing.T) {
	ft := &failNTransport{}
	ft.n.Store(2)
	_, client := rpcFixtureOpts(t, ClientOptions{
		MaxRetries:  3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		Transport:   ft,
	})
	var h uint64
	if err := client.Call(MethodHeight, nil, &h); err != nil {
		t.Fatalf("call through flaky transport: %v", err)
	}
	if got := ft.calls.Load(); got != 3 {
		t.Fatalf("round trips = %d, want 3 (2 failures + 1 success)", got)
	}
}

func TestClientGivesUpAfterRetries(t *testing.T) {
	ft := &failNTransport{}
	ft.n.Store(1000)
	_, client := rpcFixtureOpts(t, ClientOptions{
		MaxRetries:  2,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
		Transport:   ft,
	})
	if err := client.Call(MethodHeight, nil, nil); err == nil {
		t.Fatal("call through dead transport succeeded")
	}
	if got := ft.calls.Load(); got != 3 {
		t.Fatalf("round trips = %d, want 3 (initial + 2 retries)", got)
	}
}

// TestClientDoesNotRetryRPCError: a server-side rejection is deterministic
// and must be surfaced immediately, not retried.
func TestClientDoesNotRetryRPCError(t *testing.T) {
	ft := &failNTransport{} // n=0: counts calls, never fails
	_, client := rpcFixtureOpts(t, ClientOptions{
		MaxRetries:  5,
		BaseBackoff: time.Millisecond,
		Transport:   ft,
	})
	err := client.Call("tradefl_noSuchMethod", nil, nil)
	var rerr *RPCError
	if !errors.As(err, &rerr) {
		t.Fatalf("err = %v, want *RPCError", err)
	}
	if got := ft.calls.Load(); got != 1 {
		t.Fatalf("round trips = %d, want exactly 1 for a server rejection", got)
	}
}

// hangTransport blocks every round trip until the request context dies.
type hangTransport struct{}

func (hangTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	<-req.Context().Done()
	return nil, req.Context().Err()
}

// TestCallCtxHonorsDeadline: cancelling the caller's context aborts the
// whole retry loop promptly instead of burning through every backoff.
func TestCallCtxHonorsDeadline(t *testing.T) {
	_, client := rpcFixtureOpts(t, ClientOptions{
		MaxRetries:  50,
		BaseBackoff: 100 * time.Millisecond,
		Transport:   hangTransport{},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := client.CallCtx(ctx, MethodHeight, nil, nil)
	if err == nil {
		t.Fatal("call through hung transport succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("CallCtx held the caller for %v after the context expired", elapsed)
	}
}

// loseResponseTransport lets the request execute server-side but drops the
// first n responses on the floor — the classic lost-ack fault that makes
// naive resubmission double-spend a nonce.
type loseResponseTransport struct {
	n atomic.Int64
}

func (lt *loseResponseTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if lt.n.Add(-1) >= 0 {
		resp.Body.Close()
		return nil, errors.New("loseResponse: response lost in flight")
	}
	return resp, nil
}

// TestSubmitTxRetrySafeUnderLostResponse: the first submission is accepted
// by the node but its response never arrives; the client's automatic retry
// must resolve to success via the node's already-known dedup instead of a
// bad-nonce failure.
func TestSubmitTxRetrySafeUnderLostResponse(t *testing.T) {
	lt := &loseResponseTransport{}
	lt.n.Store(1)
	f, client := rpcFixtureOpts(t, ClientOptions{
		MaxRetries:  3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		Transport:   lt,
	})
	acct := f.accounts[0]
	tx, err := NewTransaction(acct, f.bc.Nonce(acct.Address()), FnDepositSubmit, nil, MinDeposit(f.params, 0, 5e9))
	if err != nil {
		t.Fatal(err)
	}
	dedupsBefore := mClientDedups.Value()
	if err := client.SubmitTx(tx); err != nil {
		t.Fatalf("SubmitTx with lost first response: %v", err)
	}
	if mClientDedups.Value() != dedupsBefore+1 {
		t.Fatal("dedup path not taken: retry should have hit already-known")
	}
	// Exactly one copy landed in the pool: sealing yields a single OK receipt.
	b, err := f.bc.SealBlock()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Receipts) != 1 || !b.Receipts[0].OK {
		t.Fatalf("receipts after deduped resubmission: %+v", b.Receipts)
	}
}

// TestSubmitTxDuplicateRejectedDirect exercises the node-side dedup for
// both a pending and a sealed duplicate.
func TestSubmitTxDuplicateRejectedDirect(t *testing.T) {
	f := newFixture(t, 2)
	acct := f.accounts[0]
	tx, err := NewTransaction(acct, 0, FnDepositSubmit, nil, MinDeposit(f.params, 0, 5e9))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.bc.SubmitTx(*tx); err != nil {
		t.Fatal(err)
	}
	if err := f.bc.SubmitTx(*tx); !errors.Is(err, ErrTxAlreadyKnown) {
		t.Fatalf("pending duplicate: err = %v, want ErrTxAlreadyKnown", err)
	}
	if _, err := f.bc.SealBlock(); err != nil {
		t.Fatal(err)
	}
	if err := f.bc.SubmitTx(*tx); !errors.Is(err, ErrTxAlreadyKnown) {
		t.Fatalf("sealed duplicate: err = %v, want ErrTxAlreadyKnown", err)
	}
	if !IsAlreadyKnown(fmt.Errorf("wrap: %w", ErrTxAlreadyKnown)) {
		t.Fatal("IsAlreadyKnown missed a wrapped ErrTxAlreadyKnown")
	}
	if !IsAlreadyKnown(&RPCError{Code: -32000, Message: ErrTxAlreadyKnown.Error() + ": abc pending"}) {
		t.Fatal("IsAlreadyKnown missed the RPC-transported form")
	}
	if IsAlreadyKnown(errors.New("chain: bad nonce")) {
		t.Fatal("IsAlreadyKnown false positive")
	}
}
