package chain

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tradefl/internal/randx"
)

// rpcFixture runs a live server around a 2-member chain.
func rpcFixture(t *testing.T) (*fixture, *Client) {
	t.Helper()
	f := newFixture(t, 2)
	srv, err := NewServer(f.bc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		// A connection the client's pool dialled but never used sits in
		// StateNew on the server, which Shutdown waits out for 5s — exactly
		// Close's deadline. Dropping the client's idle connections first
		// ends them (TestClientConcurrentCalls failed ~1 run in 15 on this).
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		<-done
	})
	return f, NewClient(srv.Addr())
}

func TestRPCRoundTrip(t *testing.T) {
	f, client := rpcFixture(t)
	a0, a1 := f.accounts[0], f.accounts[1]

	// depositSubmit via RPC for both members.
	for i, acct := range []*Account{a0, a1} {
		nonce, err := client.Nonce(acct.Address())
		if err != nil {
			t.Fatal(err)
		}
		tx, err := NewTransaction(acct, nonce, FnDepositSubmit, nil, MinDeposit(f.params, i, 5e9))
		if err != nil {
			t.Fatal(err)
		}
		if err := client.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
	}
	block, err := client.SealBlock()
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Receipts) != 2 || !block.Receipts[0].OK || !block.Receipts[1].OK {
		t.Fatalf("deposit receipts: %+v", block.Receipts)
	}

	// Status reflects registration.
	st, err := client.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Registered != 2 || st.Members != 2 || st.Calculated {
		t.Errorf("status = %+v", st)
	}

	// Submit contributions, calculate, transfer, record.
	contribs := []Contribution{{D: 0.8, F: 5e9}, {D: 0.2, F: 3e9}}
	for i, acct := range []*Account{a0, a1} {
		nonce, err := client.Nonce(acct.Address())
		if err != nil {
			t.Fatal(err)
		}
		tx, err := NewTransaction(acct, nonce, FnContributionSubmit, contribs[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := client.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.SealBlock(); err != nil {
		t.Fatal(err)
	}
	nonce, _ := client.Nonce(a0.Address())
	tx, err := NewTransaction(a0, nonce, FnPayoffCalculate, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	if _, err := client.SealBlock(); err != nil {
		t.Fatal(err)
	}

	payoffs, err := client.Payoffs()
	if err != nil {
		t.Fatal(err)
	}
	if len(payoffs) != 2 || payoffs[0] <= 0 || payoffs[0]+payoffs[1] != 0 {
		t.Errorf("payoffs = %v, want antisymmetric with positive first", payoffs)
	}

	for _, acct := range []*Account{a0, a1} {
		for _, fn := range []Function{FnPayoffTransfer, FnProfileRecord} {
			nonce, err := client.Nonce(acct.Address())
			if err != nil {
				t.Fatal(err)
			}
			tx, err := NewTransaction(acct, nonce, fn, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := client.SubmitTx(tx); err != nil {
				t.Fatal(err)
			}
			if _, err := client.SealBlock(); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err = client.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 2 {
		t.Fatalf("got %d records, want 2", st.Records)
	}
	if err := client.VerifyChain(); err != nil {
		t.Errorf("VerifyChain over RPC: %v", err)
	}
	bal, err := client.Balance(a0.Address())
	if err != nil {
		t.Fatal(err)
	}
	if bal <= 1_000_000_000 {
		t.Errorf("winner balance %d should exceed genesis allocation", bal)
	}
}

func TestRPCRejectsInvalidTx(t *testing.T) {
	f, client := rpcFixture(t)
	tx, err := NewTransaction(f.accounts[0], 0, FnDepositSubmit, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	tx.Value = 999 // break the signature
	if err := client.SubmitTx(tx); err == nil || !strings.Contains(err.Error(), "signature") {
		t.Errorf("err = %v, want signature error", err)
	}
}

func TestRPCUnknownMethod(t *testing.T) {
	_, client := rpcFixture(t)
	if err := client.Call("tradefl_doesNotExist", nil, nil); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestRPCGetBlock(t *testing.T) {
	f, client := rpcFixture(t)
	f.sendOK(t, f.accounts[0], FnDepositSubmit, nil, 100)
	var blk Block
	if err := client.Call(MethodGetBlock, uint64(1), &blk); err != nil {
		t.Fatal(err)
	}
	if blk.Height != 1 || len(blk.Txs) != 1 {
		t.Errorf("block = %+v", blk)
	}
	var height uint64
	if err := client.Call(MethodHeight, nil, &height); err != nil {
		t.Fatal(err)
	}
	if height != 1 {
		t.Errorf("height = %d, want 1", height)
	}
}

func TestAccountDeterminism(t *testing.T) {
	a1, err := NewAccount(randx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := NewAccount(randx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if a1.Address() != a2.Address() {
		t.Error("same seed produced different accounts")
	}
	msg := []byte("hello")
	if !Verify(a1.PublicKey(), msg, a1.Sign(msg)) {
		t.Error("signature round-trip failed")
	}
	if Verify(a1.PublicKey(), []byte("tampered"), a1.Sign(msg)) {
		t.Error("verify accepted wrong message")
	}
}

func TestRPCReceiptByHash(t *testing.T) {
	f, client := rpcFixture(t)
	tx, err := NewTransaction(f.accounts[0], 0, FnDepositSubmit, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := tx.Hash()
	if err != nil {
		t.Fatal(err)
	}
	// Unsealed: no receipt yet.
	if _, err := client.Receipt(hash); err == nil {
		t.Error("receipt found before sealing")
	}
	if err := client.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	if _, err := client.SealBlock(); err != nil {
		t.Fatal(err)
	}
	rcpt, err := client.Receipt(hash)
	if err != nil {
		t.Fatal(err)
	}
	if !rcpt.OK || rcpt.TxHash != hash {
		t.Errorf("receipt = %+v", rcpt)
	}
	// Failed transactions report their error through the same path.
	tx2, err := NewTransaction(f.accounts[0], 1, FnDepositSubmit, nil, 100) // double deposit
	if err != nil {
		t.Fatal(err)
	}
	hash2, err := tx2.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if err := client.SubmitTx(tx2); err != nil {
		t.Fatal(err)
	}
	if _, err := client.SealBlock(); err != nil {
		t.Fatal(err)
	}
	rcpt2, err := client.Receipt(hash2)
	if err != nil {
		t.Fatal(err)
	}
	if rcpt2.OK || rcpt2.Error == "" {
		t.Errorf("failed tx receipt = %+v", rcpt2)
	}
}

// encoderWriteRPC is the reply encoder writeRPCStatus replaced, kept as the
// oracle: marshal the result, wrap it in a RawMessage, and let
// json.Encoder encode (re-validate, re-compact) the envelope.
func encoderWriteRPC(w http.ResponseWriter, status int, id int64, result any, rerr *rpcError) {
	resp := rpcResponse{JSONRPC: "2.0", ID: id, Error: rerr}
	if rerr == nil {
		raw, err := json.Marshal(result)
		if err != nil {
			resp.Error = &rpcError{Code: -32603, Message: err.Error()}
		} else {
			resp.Result = raw
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	_ = json.NewEncoder(w).Encode(resp) // a ResponseRecorder write cannot fail
}

// TestRPCReplyBytesMatchEncoder: writing the envelope around the marshalled
// result by hand must not change one byte any client sees.
func TestRPCReplyBytesMatchEncoder(t *testing.T) {
	bc, _ := settledChain(t, 4)
	block, err := bc.BlockAt(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		status int
		id     int64
		result any
		rerr   *rpcError
	}{
		{"block", http.StatusOK, 7, block, nil},
		{"bool", http.StatusOK, 1, true, nil},
		{"nil result", http.StatusOK, 0, nil, nil},
		{"negative id", http.StatusOK, -9, bc.Height(), nil},
		{"escaped string", http.StatusOK, 2, "<a href=\"x\">& </a>", nil},
		{"submit results", http.StatusOK, 3, []SubmitResult{{TxHash: "ab", OK: true}, {Error: "chain: bad nonce"}}, nil},
		{"rpc error", http.StatusOK, 4, nil, &rpcError{Code: -32000, Message: "chain: bad nonce: got 3, want <4>"}},
		{"error wins over result", http.StatusOK, 5, block, &rpcError{Code: -32700, Message: "parse error"}},
		{"413", http.StatusRequestEntityTooLarge, 0, nil, &rpcError{Code: CodeRequestTooLarge, Message: "request too large"}},
		{"unmarshalable result", http.StatusOK, 6, math.NaN(), nil},
		{"unmarshalable type", http.StatusOK, 8, make(chan int), nil},
	} {
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		writeRPCStatus(got, tc.status, tc.id, tc.result, tc.rerr)
		encoderWriteRPC(want, tc.status, tc.id, tc.result, tc.rerr)
		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Errorf("%s: status/content-type %d %q, want %d %q", tc.name,
				got.Code, got.Header().Get("Content-Type"), want.Code, want.Header().Get("Content-Type"))
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s: body\n got %s\nwant %s", tc.name, got.Body.Bytes(), want.Body.Bytes())
		}
	}
	// The -32603 path is the one case where the body is built from an error
	// the marshaller produced; pin its shape, not just its agreement.
	rec := httptest.NewRecorder()
	writeRPCStatus(rec, http.StatusOK, 6, math.NaN(), nil)
	if want := `{"jsonrpc":"2.0","id":6,"error":{"code":-32603,"message":"json: unsupported value: NaN"}}` + "\n"; rec.Body.String() != want {
		t.Errorf("unmarshalable result body %q, want %q", rec.Body.String(), want)
	}
}
