package chain

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tradefl/internal/httpx"
	"tradefl/internal/jsonx"
	"tradefl/internal/obs"
)

// rpcLog carries the RPC server's diagnostics; dispatch failures are
// reported to clients as JSON-RPC error objects, so without this log they
// would leave no server-side trace.
var rpcLog = obs.Component("chain.rpc")

// RPC method names exposed by the node, mirroring the Web3-style interface
// the paper's prototype uses for "data interaction among organizations and
// the smart contract".
const (
	MethodSubmitTx = "tradefl_submitTransaction"
	// MethodSubmitTxBatch amortizes one round-trip and one WAL group commit
	// over a whole batch of transactions (SubmitTxBatch).
	MethodSubmitTxBatch = "tradefl_submitTransactionBatch"
	MethodSealBlock     = "tradefl_sealBlock"
	MethodBalance       = "tradefl_getBalance"
	MethodNonce         = "tradefl_getNonce"
	MethodHeight        = "tradefl_blockHeight"
	MethodGetBlock      = "tradefl_getBlock"
	MethodPayoffs       = "tradefl_getPayoffs"
	MethodRecords       = "tradefl_getRecords"
	MethodVerify        = "tradefl_verifyChain"
	MethodStatus        = "tradefl_contractStatus"
	MethodTxProof       = "tradefl_getTxProof"
	MethodGetReceipt    = "tradefl_getReceipt"
	MethodStateRoot     = "tradefl_stateRoot"
)

// rpcRequest is a JSON-RPC 2.0 request. Trace is a TradeFL extension: an
// optional distributed-trace context the server continues into a serve
// span; unaware peers ignore it, and a retried or replayed request carries
// the same context so the trace stays consistent under at-least-once
// delivery.
type rpcRequest struct {
	JSONRPC string            `json:"jsonrpc"`
	ID      int64             `json:"id"`
	Method  string            `json:"method"`
	Trace   *obs.TraceContext `json:"trace,omitempty"`
	Params  json.RawMessage   `json:"params,omitempty"`

	// txs, when non-nil, is a batch's already-decoded Params, which are
	// empty then (decodeRequest).
	txs []Transaction
}

// rpcError is a JSON-RPC 2.0 error object.
type rpcError struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

// CodeRequestTooLarge is the JSON-RPC error code of a request body that
// exceeds MaxRequestBody. It rides an HTTP 413 response, and like every
// server-side rejection it is deterministic and never retried.
const CodeRequestTooLarge = -32001

// MaxRequestBody caps an RPC request body (1 MiB). An oversized request —
// in practice a SubmitTxBatch gone too big — is rejected explicitly with
// CodeRequestTooLarge/HTTP 413 so the client learns to split the batch;
// silently truncating it would surface as an opaque parse error.
const MaxRequestBody = 1 << 20

// rpcResponse is a JSON-RPC 2.0 response.
type rpcResponse struct {
	JSONRPC string          `json:"jsonrpc"`
	ID      int64           `json:"id"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   *rpcError       `json:"error,omitempty"`
}

// ContractStatus summarizes the settlement progress for clients.
type ContractStatus struct {
	Members    int  `json:"members"`
	Registered int  `json:"registered"`
	Submitted  int  `json:"submitted"`
	Calculated bool `json:"calculated"`
	Settled    bool `json:"settled"`
	Records    int  `json:"records"`
}

// Server exposes a Blockchain over JSON-RPC/HTTP.
type Server struct {
	bc   *Blockchain
	http *http.Server
	ln   net.Listener
}

// NewServer wraps the chain in an RPC server listening on addr
// (e.g. "127.0.0.1:0"). Call Serve to start and Close to stop.
func NewServer(bc *Blockchain, addr string) (*Server, error) {
	return NewServerWith(bc, addr, nil)
}

// NewServerWith is NewServer with an optional handler middleware wrapped
// around the RPC endpoint — the hook chaos runs use to inject server-side
// failures and delays without touching the dispatch path.
func NewServerWith(bc *Blockchain, addr string, mw func(http.Handler) http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("chain rpc: listen: %w", err)
	}
	s := &Server{bc: bc, ln: ln}
	var h http.Handler = http.HandlerFunc(s.handle)
	if mw != nil {
		h = mw(h)
	}
	mux := http.NewServeMux()
	mux.Handle("/rpc", h)
	// Harden fills the remaining timeouts (full-request read, write, idle)
	// so a slow-trickled request body cannot hold a connection open
	// indefinitely; every RPC route is strictly request/response, so no
	// handler needs a deadline opt-out.
	s.http = httpx.Harden(&http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second})
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Serve blocks serving requests until Close.
func (s *Server) Serve() error {
	err := s.http.Serve(s.ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Close shuts the server down and waits for in-flight requests.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.http.Shutdown(ctx)
}

func writeRPC(w http.ResponseWriter, id int64, result any, rerr *rpcError) {
	writeRPCStatus(w, http.StatusOK, id, result, rerr)
}

// writeRPCStatus is writeRPC with an explicit HTTP status — edge
// rejections (413 request-too-large) keep the JSON-RPC error body while
// still speaking honest HTTP to proxies and load balancers.
func writeRPCStatus(w http.ResponseWriter, status int, id int64, result any, rerr *rpcError) {
	var body []byte
	if rerr == nil {
		var err error
		if body, err = encodeResponse(id, result); err != nil {
			rerr = &rpcError{Code: -32603, Message: err.Error()}
		}
	}
	if rerr != nil {
		body, _ = json.Marshal(rpcResponse{JSONRPC: "2.0", ID: id, Error: rerr}) // ints and strings: cannot fail
	}
	w.Header().Set("Content-Type", "application/json")
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	if _, err := w.Write(append(body, '\n')); err != nil {
		// The connection is gone; log it so dropped responses are visible
		// server-side, then move on.
		rpcLog.Debug("response write failed", "id", id, "err", err)
	}
}

// encodeResponse renders a success response around result. A block (the
// seal and getBlock replies) and a batch's results carry a settlement and
// are append-built; the small replies go through encoding/json. Either way
// the envelope is written around the already compact, escaped result.
func encodeResponse(id int64, result any) ([]byte, error) {
	blk, _ := result.(*Block)
	results, isResults := result.([]SubmitResult)
	size := 64 + 192*len(results)
	if blk != nil {
		size += blk.sizeHint()
	}
	body := strconv.AppendInt(append(make([]byte, 0, size), `{"jsonrpc":"2.0","id":`...), id, 10)
	body = append(body, `,"result":`...)
	var err error
	switch {
	case blk != nil:
		body, err = appendBlock(body, blk, true)
	case isResults:
		body, err = appendArray(body, results, appendSubmitResult)
	default:
		var raw []byte
		raw, err = json.Marshal(result)
		body = append(body, raw...)
	}
	return append(body, '}'), err
}

// encodeRequest renders a request: what json.Marshal writes for an
// rpcRequest whose Params are json.Marshal(params), with a transaction
// batch append-built.
func encodeRequest(id int64, method string, trace *obs.TraceContext, params any) ([]byte, error) {
	txs, isTxs := params.([]Transaction)
	dst := strconv.AppendInt(append(make([]byte, 0, 128+len(method)+txSizeHint*len(txs)), `{"jsonrpc":"2.0","id":`...), id, 10)
	dst = jsonx.AppendString(append(dst, `,"method":`...), method)
	if trace != nil {
		dst = jsonx.AppendString(append(dst, `,"trace":{"traceId":`...), trace.TraceID)
		dst = append(jsonx.AppendString(append(dst, `,"spanId":`...), trace.SpanID), '}')
	}
	var err error
	switch {
	case isTxs:
		dst, err = appendArray(append(dst, `,"params":`...), txs, appendSignedTx)
	case params != nil:
		var raw []byte
		raw, err = json.Marshal(params)
		dst = append(append(dst, `,"params":`...), raw...)
	}
	return append(dst, '}'), err
}

func (s *Server) handle(w http.ResponseWriter, r *http.Request) {
	mRPCRequests.Inc()
	if r.Method != http.MethodPost {
		mRPCErrors.Inc()
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := httpx.ReadBody(r, MaxRequestBody)
	if errors.Is(err, httpx.ErrBodyTooLarge) {
		mRPCErrors.Inc()
		mRPCTooLarge.Inc()
		rpcLog.Warn("request body over limit", "err", err)
		writeRPCStatus(w, http.StatusRequestEntityTooLarge, 0, nil,
			&rpcError{Code: CodeRequestTooLarge, Message: fmt.Sprintf("request too large: %v", err)})
		return
	}
	if err != nil {
		mRPCErrors.Inc()
		rpcLog.Warn("request body read failed", "err", err)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var req rpcRequest
	if err := parseRequest(body, &req); err != nil {
		mRPCErrors.Inc()
		rpcLog.Warn("request parse failed", "err", err)
		writeRPC(w, 0, nil, &rpcError{Code: -32700, Message: "parse error"})
		return
	}
	if req.Trace != nil {
		sp := obs.SpanRemote("chain.rpc.serve", *req.Trace)
		defer sp.End()
	}
	result, err := s.dispatch(&req)
	if err != nil {
		// The client only sees the JSON-RPC error object; record the
		// failure server-side before it is swallowed into the response.
		// Receipt misses are routine (clients poll until their tx seals),
		// as are duplicate submissions (clients resend after a lost
		// response), so they stay at debug rather than flooding the log.
		mRPCErrors.Inc()
		if req.Method == MethodGetReceipt || errors.Is(err, ErrTxAlreadyKnown) {
			rpcLog.Debug("dispatch failed", "method", req.Method, "id", req.ID, "err", err)
		} else {
			rpcLog.Warn("dispatch failed", "method", req.Method, "id", req.ID, "err", err)
		}
		writeRPC(w, req.ID, nil, &rpcError{Code: -32000, Message: err.Error()})
		return
	}
	writeRPC(w, req.ID, result, nil)
}

// parseRequest decodes a request body: in one pass when it is in canonical
// form, else by encoding/json.
func parseRequest(body []byte, req *rpcRequest) error {
	if decodeRequest(body, req) {
		return nil
	}
	*req = rpcRequest{}
	return json.Unmarshal(body, req)
}

func (s *Server) dispatch(req *rpcRequest) (any, error) {
	method, params := req.Method, req.Params
	switch method {
	case MethodSubmitTx:
		var tx Transaction
		if err := json.Unmarshal(params, &tx); err != nil {
			return nil, fmt.Errorf("bad tx: %w", err)
		}
		if err := s.bc.SubmitTx(tx); err != nil {
			return nil, err
		}
		return true, nil
	case MethodSubmitTxBatch:
		txs := req.txs
		if txs == nil {
			if err := json.Unmarshal(params, &txs); err != nil {
				return nil, fmt.Errorf("bad tx batch: %w", err)
			}
		}
		return s.bc.SubmitTxBatch(txs)
	case MethodSealBlock:
		return s.bc.SealBlock()
	case MethodBalance:
		var addr Address
		if err := json.Unmarshal(params, &addr); err != nil {
			return nil, err
		}
		return s.bc.Balance(addr), nil
	case MethodNonce:
		var addr Address
		if err := json.Unmarshal(params, &addr); err != nil {
			return nil, err
		}
		return s.bc.Nonce(addr), nil
	case MethodHeight:
		return s.bc.Height(), nil
	case MethodStateRoot:
		return s.bc.StateRoot(), nil
	case MethodGetBlock:
		var height uint64
		if err := json.Unmarshal(params, &height); err != nil {
			return nil, err
		}
		return s.bc.BlockAt(height)
	case MethodPayoffs:
		var out []Wei
		err := s.bc.ContractView(func(c *Contract) error {
			p, err := c.Payoffs()
			out = p
			return err
		})
		return out, err
	case MethodRecords:
		var out []ProfileEntry
		err := s.bc.ContractView(func(c *Contract) error {
			out = c.SortedRecords()
			return nil
		})
		return out, err
	case MethodVerify:
		if err := s.bc.VerifyChain(); err != nil {
			return nil, err
		}
		return true, nil
	case MethodStatus:
		var st ContractStatus
		err := s.bc.ContractView(func(c *Contract) error {
			st.Members = len(c.Params.Members)
			for _, m := range c.Params.Members {
				ms := c.MemberData[m]
				if ms.Registered {
					st.Registered++
				}
				if ms.Submitted {
					st.Submitted++
				}
			}
			st.Calculated = c.Calculated
			st.Settled = c.Settled
			st.Records = len(c.Records)
			return nil
		})
		return st, err
	case MethodGetReceipt:
		var txHash string
		if err := json.Unmarshal(params, &txHash); err != nil {
			return nil, err
		}
		return s.bc.ReceiptByHash(txHash)
	case MethodTxProof:
		var arg struct {
			Height uint64 `json:"height"`
			TxIdx  int    `json:"txIdx"`
		}
		if err := json.Unmarshal(params, &arg); err != nil {
			return nil, err
		}
		return s.bc.TxProof(arg.Height, arg.TxIdx)
	default:
		return nil, fmt.Errorf("unknown method %q", method)
	}
}

// RPCError is a server-side rejection: the request reached the node and
// was answered with a JSON-RPC error object. It is never retried — the
// node already executed (and refused) the call deterministically.
type RPCError struct {
	Code    int
	Message string
}

func (e *RPCError) Error() string { return fmt.Sprintf("chain rpc: %s", e.Message) }

// ClientOptions tunes the client's resilience: per-call deadlines and
// capped exponential backoff with jitter on transport failures.
type ClientOptions struct {
	// Timeout bounds each RPC attempt (default 10s).
	Timeout time.Duration
	// MaxRetries is the number of re-attempts after the first failed try
	// (default 3). Only transport failures are retried; RPCError responses
	// are returned immediately.
	MaxRetries int
	// BaseBackoff is the first retry delay (default 50ms); each further
	// retry doubles it up to MaxBackoff (default 2s), with ±50% jitter.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// JitterSeed seeds the backoff jitter stream. 0 asks the Transport for
	// a deterministic seed (the internal/faults RoundTripper derives one
	// from its injector's plan seed and lane) and falls back to the wall
	// clock only when the transport is not seed-aware — so a fully seeded
	// chaos run never consults the clock. Fix it to make retry timing
	// reproducible in tests.
	JitterSeed int64
	// Transport overrides the HTTP transport (fault injection in chaos
	// runs); nil uses http.DefaultTransport.
	Transport http.RoundTripper
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	} else if o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.JitterSeed == 0 {
		if s, ok := o.Transport.(jitterSeeder); ok {
			o.JitterSeed = s.JitterSeed()
		}
	}
	if o.JitterSeed == 0 {
		o.JitterSeed = time.Now().UnixNano()
	}
	return o
}

// jitterSeeder is the optional interface of seed-deterministic transports:
// a Transport that can derive a stable seed from the run's configuration
// (internal/faults RoundTripper) reports it here, and the client seeds its
// retry jitter from it instead of the wall clock.
type jitterSeeder interface {
	JitterSeed() int64
}

// Client is a Web3-style client for the node's RPC interface. It is safe
// for concurrent use; transient transport failures are retried with
// capped exponential backoff, server rejections are not.
type Client struct {
	url  string
	http *http.Client
	opts ClientOptions
	id   atomic.Int64

	jmu    sync.Mutex
	jitter *rand.Rand
}

// NewClient targets the node at addr (host:port) with default options.
func NewClient(addr string) *Client {
	return NewClientOpts(addr, ClientOptions{})
}

// NewClientOpts targets the node at addr with explicit resilience options.
func NewClientOpts(addr string, opts ClientOptions) *Client {
	opts = opts.withDefaults()
	hc := &http.Client{Timeout: opts.Timeout}
	if opts.Transport != nil {
		hc.Transport = opts.Transport
	}
	return &Client{
		url:    "http://" + addr + "/rpc",
		http:   hc,
		opts:   opts,
		jitter: rand.New(rand.NewSource(opts.JitterSeed)),
	}
}

// Call invokes method with params, decoding the result into out (may be
// nil to discard). It retries transport failures per the client options.
func (c *Client) Call(method string, params, out any) error {
	return c.CallCtx(context.Background(), method, params, out)
}

// CallCtx is Call with caller-controlled cancellation: the context bounds
// the whole retry loop, while ClientOptions.Timeout bounds each attempt.
func (c *Client) CallCtx(ctx context.Context, method string, params, out any) error {
	// Only calls whose context already carries a trace get a client span:
	// high-rate background polls (status, receipts, nonces) run on untraced
	// contexts and must not flood the trace store with root spans — the
	// number of polls is timing-dependent, and seeded-soak trace topologies
	// are required to be bit-identical across runs.
	if _, traced := obs.TraceFromContext(ctx); traced {
		var sp *obs.ActiveSpan
		ctx, sp = obs.Span(ctx, "chain.rpc.call")
		defer sp.End()
	}
	var lastErr error
	for attempt := 0; attempt <= c.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			mClientRetries.Inc()
			obs.FlightRecord("chain", "rpc-retry",
				fmt.Sprintf("%s attempt %d: %v", method, attempt+1, lastErr))
			rpcLog.Debug("retrying call", "method", method, "attempt", attempt+1, "err", lastErr)
			select {
			case <-time.After(c.backoff(attempt)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		err := c.doOnce(ctx, method, params, out)
		if err == nil {
			return nil
		}
		lastErr = err
		var rerr *RPCError
		if errors.As(err, &rerr) {
			// The node answered: deterministic rejection, never retried.
			return err
		}
		if ctx.Err() != nil {
			return lastErr
		}
	}
	obs.FlightRecord("chain", "rpc-giveup",
		fmt.Sprintf("%s after %d attempts: %v", method, c.opts.MaxRetries+1, lastErr))
	rpcLog.Warn("call failed after retries", "method", method, "attempts", c.opts.MaxRetries+1, "err", lastErr)
	return lastErr
}

// backoff returns the capped, jittered delay before retry `attempt`.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.opts.BaseBackoff << (attempt - 1)
	if d > c.opts.MaxBackoff || d <= 0 {
		d = c.opts.MaxBackoff
	}
	c.jmu.Lock()
	frac := 0.5 + c.jitter.Float64() // ±50% jitter
	c.jmu.Unlock()
	return time.Duration(float64(d) * frac)
}

// doOnce performs a single request/response cycle.
func (c *Client) doOnce(ctx context.Context, method string, params, out any) error {
	reqBody, err := encodeRequest(c.id.Add(1), method, obs.InjectTrace(ctx), params)
	if err != nil {
		return fmt.Errorf("chain rpc: marshal params: %w", err)
	}
	attemptCtx, cancel := context.WithTimeout(ctx, c.opts.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(attemptCtx, http.MethodPost, c.url, bytes.NewReader(reqBody))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("chain rpc: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("chain rpc: decode: %w", err)
	}
	return decodeReply(body, out)
}

// decodeReply decodes a response body into out (nil to discard): in one
// pass when it is the canonical form the node writes for a block or a
// batch's results, else by encoding/json — first value of the stream, then
// its result — as every reply used to be.
func decodeReply(body []byte, out any) error {
	if decodeResponse(body, out) {
		return nil
	}
	var rpcResp rpcResponse
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&rpcResp); err != nil {
		return fmt.Errorf("chain rpc: decode: %w", err)
	}
	if rpcResp.Error != nil {
		return &RPCError{Code: rpcResp.Error.Code, Message: rpcResp.Error.Message}
	}
	if out != nil {
		if err := json.Unmarshal(rpcResp.Result, out); err != nil {
			return fmt.Errorf("chain rpc: decode result: %w", err)
		}
	}
	return nil
}

// SubmitTx submits a signed transaction. It is retry-safe: a resubmission
// whose earlier attempt was accepted (response lost in flight) is
// answered "already known" by the node and reported as success here; the
// transaction's actual outcome is in its sealed receipt.
func (c *Client) SubmitTx(tx *Transaction) error {
	return c.SubmitTxCtx(context.Background(), tx)
}

// SubmitTxCtx is SubmitTx with caller-controlled cancellation.
func (c *Client) SubmitTxCtx(ctx context.Context, tx *Transaction) error {
	err := c.CallCtx(ctx, MethodSubmitTx, tx, nil)
	if IsAlreadyKnown(err) {
		mClientDedups.Inc()
		return nil
	}
	return err
}

// SubmitTxBatch submits a batch of signed transactions in one round-trip;
// the node admits them under a single lock hold and one WAL group commit.
// Per-transaction outcomes come back in order; like SubmitTx, dedup hits
// are reported as accepted (Known), so blind retry of a whole batch is
// safe. It implements TxBatchSubmitter.
func (c *Client) SubmitTxBatch(txs []Transaction) ([]SubmitResult, error) {
	return c.SubmitTxBatchCtx(context.Background(), txs)
}

// SubmitTxBatchCtx is SubmitTxBatch with caller-controlled cancellation.
func (c *Client) SubmitTxBatchCtx(ctx context.Context, txs []Transaction) ([]SubmitResult, error) {
	if len(txs) == 0 {
		return nil, nil
	}
	var results []SubmitResult
	if err := c.CallCtx(ctx, MethodSubmitTxBatch, txs, &results); err != nil {
		return nil, err
	}
	for i := range results {
		if results[i].Known {
			mClientDedups.Inc()
		}
	}
	return results, nil
}

// IsAlreadyKnown reports whether err is the node's duplicate-transaction
// rejection — the signal that a retried submission had already been
// accepted, which SubmitTx treats as idempotent success.
func IsAlreadyKnown(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrTxAlreadyKnown) {
		return true
	}
	var rerr *RPCError
	return errors.As(err, &rerr) && strings.Contains(rerr.Message, ErrTxAlreadyKnown.Error())
}

// SealBlock asks the authority node to seal the pending pool.
func (c *Client) SealBlock() (*Block, error) {
	var b Block
	if err := c.Call(MethodSealBlock, nil, &b); err != nil {
		return nil, err
	}
	return &b, nil
}

// Balance fetches an account balance.
func (c *Client) Balance(addr Address) (Wei, error) {
	var w Wei
	err := c.Call(MethodBalance, addr, &w)
	return w, err
}

// Nonce fetches the next state nonce for addr.
func (c *Client) Nonce(addr Address) (uint64, error) {
	var n uint64
	err := c.Call(MethodNonce, addr, &n)
	return n, err
}

// StateRoot fetches the state root of the latest sealed block — what the
// crash-recovery harness compares across kill/restart cycles.
func (c *Client) StateRoot() (string, error) {
	var root string
	err := c.Call(MethodStateRoot, nil, &root)
	return root, err
}

// Status fetches the contract settlement status.
func (c *Client) Status() (ContractStatus, error) {
	var st ContractStatus
	err := c.Call(MethodStatus, nil, &st)
	return st, err
}

// Payoffs fetches the calculated redistribution.
func (c *Client) Payoffs() ([]Wei, error) {
	var out []Wei
	err := c.Call(MethodPayoffs, nil, &out)
	return out, err
}

// Records fetches the profileRecord log.
func (c *Client) Records() ([]ProfileEntry, error) {
	var out []ProfileEntry
	err := c.Call(MethodRecords, nil, &out)
	return out, err
}

// VerifyChain asks the node to re-validate its chain.
func (c *Client) VerifyChain() error {
	return c.Call(MethodVerify, nil, nil)
}

// Receipt fetches the sealed receipt of a transaction by hash, or an error
// if no sealed block contains it yet. Clients running concurrently with
// other submitters must use this (not the receipts of the block their own
// SealBlock call returned) to learn their transaction's outcome: another
// process's seal may have included it first.
func (c *Client) Receipt(txHash string) (*Receipt, error) {
	var r Receipt
	if err := c.Call(MethodGetReceipt, txHash, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// TxProof fetches a Merkle inclusion proof for a sealed transaction; the
// client can Verify it against the block header it holds.
func (c *Client) TxProof(height uint64, txIdx int) (*MerkleProof, error) {
	var proof MerkleProof
	err := c.Call(MethodTxProof, map[string]any{"height": height, "txIdx": txIdx}, &proof)
	if err != nil {
		return nil, err
	}
	return &proof, nil
}
