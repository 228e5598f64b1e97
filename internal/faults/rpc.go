package faults

import (
	"fmt"
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
