package faults

import (
	"fmt"
	"hash/fnv"
	"io"
	"net/http"

	"tradefl/internal/obs"
)

// faultyRoundTripper injects RPC faults on the client side of an HTTP
// connection: pre-send failures (the request never reaches the server),
// lost responses (the request WAS executed — the case that demands
// idempotent retries), and delays.
type faultyRoundTripper struct {
	base http.RoundTripper
	inj  *Injector
	lane string
}

// RoundTripper wraps base (nil = http.DefaultTransport) with the
// injector's RPC fault schedule. lane names the client's random stream;
// give each concurrent client its own lane for per-client determinism.
func (inj *Injector) RoundTripper(lane string, base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &faultyRoundTripper{base: base, inj: inj, lane: "rpc:" + lane}
}

// JitterSeed returns a deterministic seed derived from the injector's plan
// seed and this transport's lane (Plan.Seed XOR FNV-1a("jitter:"+lane),
// never 0). Seed-aware consumers — chain.ClientOptions probes its Transport
// for exactly this method — use it to drive their retry-backoff jitter from
// the run seed instead of the wall clock, so a chaos run is reproducible
// from its seed alone. The "jitter:" domain prefix keeps the stream
// disjoint from the lane's fault-decision stream.
func (f *faultyRoundTripper) JitterSeed() int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte("jitter:" + f.lane))
	seed := f.inj.plan.Seed ^ int64(h.Sum64())
	if seed == 0 {
		// 0 means "unseeded" to consumers; remap to a fixed nonzero value.
		seed = int64(h.Sum64()) | 1
	}
	return seed
}

func (f *faultyRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	d := f.inj.decideRPC(f.lane)
	if d.fail {
		f.inj.count(func(c *Counts) { c.RPCFailures++ })
		obs.FlightRecord("faults", "rpc-fail", f.lane)
		fLog.Debug("injected rpc failure", "lane", f.lane, "url", req.URL.String())
		if req.Body != nil {
			_ = req.Body.Close()
		}
		return nil, fmt.Errorf("%w: rpc connection refused", ErrInjected)
	}
	if d.delay > 0 {
		f.inj.count(func(c *Counts) { c.RPCDelayed++ })
		f.inj.sleep(d.delay)
	}
	resp, err := f.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if d.lost {
		// The server handled the request; the client never learns.
		f.inj.count(func(c *Counts) { c.RPCLost++ })
		obs.FlightRecord("faults", "rpc-lost", f.lane)
		fLog.Debug("injected lost rpc response", "lane", f.lane, "url", req.URL.String())
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		return nil, fmt.Errorf("%w: rpc response lost", ErrInjected)
	}
	return resp, nil
}

// Middleware wraps an HTTP handler with server-side request faults: a
// request hit by the fail roll is answered 503 without reaching next, and
// delayed requests are held before dispatch. It lets a real tradefl-chain
// node chaos-test multi-process settlements without touching clients.
func (inj *Injector) Middleware(lane string, next http.Handler) http.Handler {
	lane = "rpcsrv:" + lane
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := inj.decideRPC(lane)
		if d.fail {
			inj.count(func(c *Counts) { c.RPCFailures++ })
			http.Error(w, "faults: injected server failure", http.StatusServiceUnavailable)
			return
		}
		if d.delay > 0 {
			inj.count(func(c *Counts) { c.RPCDelayed++ })
			inj.sleep(d.delay)
		}
		next.ServeHTTP(w, r)
	})
}
