package chain

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"tradefl/internal/durable"
	"tradefl/internal/obs"
)

// The oracles of encode.go and decode.go: encoding/json over the struct
// forms, which is what wrote every signed, hashed, logged and replied byte
// before the append encoders and the cursors did.

// sigPayload is the signed content: a Transaction without its signature.
type sigPayload struct {
	From   Address         `json:"from"`
	Nonce  uint64          `json:"nonce"`
	Fn     Function        `json:"fn"`
	Args   json.RawMessage `json:"args,omitempty"`
	Value  Wei             `json:"value"`
	PubKey []byte          `json:"pubKey"`
}

// headerPayload is what the authority signs: a Block without its seal.
type headerPayload struct {
	Height    uint64        `json:"height"`
	PrevHash  string        `json:"prevHash"`
	StateRoot string        `json:"stateRoot"`
	TxRoot    string        `json:"txRoot"`
	Txs       []Transaction `json:"txs"`
	Receipts  []Receipt     `json:"receipts"`
	Sealer    []byte        `json:"sealer"`
	Term      uint64        `json:"term,omitempty"`
}

// oracleFrame is encodeWalRec as it was: json.Marshal of the record.
func oracleFrame(rec walRec) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("chain: marshal wal record: %w", err)
	}
	return durable.AppendFrame(nil, payload), nil
}

// oracleResponse is the success envelope as encoding/json writes it.
func oracleResponse(id int64, result any) ([]byte, error) {
	raw, err := json.Marshal(result)
	if err != nil {
		return nil, err
	}
	return json.Marshal(rpcResponse{JSONRPC: "2.0", ID: id, Result: raw})
}

// oracleRequest is Client.doOnce's request body as it was built.
func oracleRequest(id int64, method string, trace *obs.TraceContext, params any) ([]byte, error) {
	var raw json.RawMessage
	if params != nil {
		b, err := json.Marshal(params)
		if err != nil {
			return nil, err
		}
		raw = b
	}
	return json.Marshal(rpcRequest{JSONRPC: "2.0", ID: id, Method: method, Trace: trace, Params: raw})
}

// oracleDecodeReply is Client.doOnce's response decoding as it was.
func oracleDecodeReply(body []byte, out any) error {
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

func sameError(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// requireSame holds an encoder's output to its oracle's: the same bytes, or
// the same error text.
func requireSame(t testing.TB, what string, got []byte, gotErr error, want []byte, wantErr error) {
	t.Helper()
	if !sameError(gotErr, wantErr) {
		t.Fatalf("%s: error %v, encoding/json %v", what, gotErr, wantErr)
	}
	if gotErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s:\n got %s\nwant %s", what, got, want)
	}
}

func requireMarshal(t testing.TB, what string, got []byte, gotErr error, ref any) {
	t.Helper()
	want, wantErr := json.Marshal(ref)
	requireSame(t, what, got, gotErr, want, wantErr)
}

func checkTxEncoding(t testing.TB, tx *Transaction) {
	t.Helper()
	got, err := appendTx(nil, tx, false)
	requireMarshal(t, "signed payload", got, err, sigPayload{tx.From, tx.Nonce, tx.Fn, tx.Args, tx.Value, tx.PubKey})
	got, err = appendTx(nil, tx, true)
	requireMarshal(t, "transaction", got, err, tx)
	got, err = encodeWalRec(walRec{Kind: recTx, Tx: tx})
	want, wantErr := oracleFrame(walRec{Kind: recTx, Tx: tx})
	requireSame(t, "wal tx record", got, err, want, wantErr)
}

func checkBlockEncoding(t testing.TB, b *Block) {
	t.Helper()
	got, err := appendBlock(nil, b, false)
	requireMarshal(t, "header payload", got, err, headerPayload{b.Height, b.PrevHash, b.StateRoot, b.TxRoot, b.Txs, b.Receipts, b.Sealer, b.Term})
	got, err = appendBlock(nil, b, true)
	requireMarshal(t, "block", got, err, b)
	got, err = encodeWalRec(walRec{Kind: recBlock, Block: b})
	want, wantErr := oracleFrame(walRec{Kind: recBlock, Block: b})
	requireSame(t, "wal block record", got, err, want, wantErr)
	got, err = encodeResponse(int64(b.Height), b)
	want, wantErr = oracleResponse(int64(b.Height), b)
	requireSame(t, "block reply", got, err, want, wantErr)
	for i := range b.Txs {
		checkTxEncoding(t, &b.Txs[i])
	}
	for i := range b.Receipts {
		got, _ = appendReceipt(nil, &b.Receipts[i])
		requireMarshal(t, "receipt", got, nil, b.Receipts[i])
	}
}

func checkLedgerEncoding(t testing.TB, led *ledger) {
	t.Helper()
	got, err := led.appendJSON(nil)
	requireMarshal(t, "ledger", got, err, led)
}

func checkResultsEncoding(t testing.TB, results []SubmitResult) {
	t.Helper()
	got, err := encodeResponse(3, results)
	want, wantErr := oracleResponse(3, results)
	requireSame(t, "batch reply", got, err, want, wantErr)
}

func checkRequestEncoding(t testing.TB, method string, trace *obs.TraceContext, params any) {
	t.Helper()
	got, err := encodeRequest(11, method, trace, params)
	want, wantErr := oracleRequest(11, method, trace, params)
	requireSame(t, "request "+method, got, err, want, wantErr)
}

// checkReplyDecoding holds decodeReply to the encoding/json path on body,
// for every kind of out a caller passes, fresh and already filled.
func checkReplyDecoding(t testing.TB, body []byte) {
	t.Helper()
	filled := func() *Block {
		return &Block{Height: 9, Txs: make([]Transaction, 1, 4), Term: 3, Seal: []byte{1}, admitted: []string{"w"}}
	}
	for _, tc := range []struct {
		name      string
		got, want any
	}{
		{"block", new(Block), new(Block)},
		{"filled block", filled(), filled()},
		{"results", new([]SubmitResult), new([]SubmitResult)},
		{"filled results", &[]SubmitResult{{TxHash: "x", Known: true}}, &[]SubmitResult{{TxHash: "x", Known: true}}},
		{"nil block", (*Block)(nil), (*Block)(nil)},
		{"uint64", new(uint64), new(uint64)},
		{"discard", nil, nil},
	} {
		gotErr, wantErr := decodeReply(body, tc.got), oracleDecodeReply(body, tc.want)
		if !sameError(gotErr, wantErr) || reflect.TypeOf(gotErr) != reflect.TypeOf(wantErr) {
			t.Fatalf("%s: error %v, encoding/json %v\nbody %s", tc.name, gotErr, wantErr, body)
		}
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Fatalf("%s: decoded\n got %+v\nwant %+v\nbody %s", tc.name, tc.got, tc.want, body)
		}
	}
}

// requestTxs is what dispatch hands the chain for a submit method.
func requestTxs(req *rpcRequest) ([]Transaction, error) {
	if req.txs != nil {
		return req.txs, nil
	}
	if req.Method == MethodSubmitTx {
		txs := make([]Transaction, 1)
		return txs, json.Unmarshal(req.Params, &txs[0])
	}
	var txs []Transaction
	return txs, json.Unmarshal(req.Params, &txs)
}

// checkRequestDecoding holds parseRequest to json.Unmarshal on body: the
// same envelope, the same error, and for a submit method the same
// transactions reaching the chain.
func checkRequestDecoding(t testing.TB, body []byte) (fast bool) {
	t.Helper()
	var got, want rpcRequest
	gotErr, wantErr := parseRequest(body, &got), json.Unmarshal(body, &want)
	if !sameError(gotErr, wantErr) {
		t.Fatalf("request error %v, encoding/json %v\nbody %s", gotErr, wantErr, body)
	}
	if gotErr != nil {
		return false
	}
	if got.JSONRPC != want.JSONRPC || got.ID != want.ID || got.Method != want.Method || !reflect.DeepEqual(got.Trace, want.Trace) {
		t.Fatalf("request envelope\n got %+v\nwant %+v\nbody %s", got, want, body)
	}
	if got.Method != MethodSubmitTx && got.Method != MethodSubmitTxBatch {
		if !reflect.DeepEqual(got.Params, want.Params) {
			t.Fatalf("raw params %q, encoding/json %q\nbody %s", got.Params, want.Params, body)
		}
		return got.Params != nil
	}
	gotTxs, gotErr := requestTxs(&got)
	wantTxs, wantErr := requestTxs(&want)
	if !sameError(gotErr, wantErr) || (gotErr == nil && !reflect.DeepEqual(gotTxs, wantTxs)) {
		t.Fatalf("submitted txs\n got %+v (%v)\nwant %+v (%v)\nbody %s", gotTxs, gotErr, wantTxs, wantErr, body)
	}
	return got.txs != nil
}

// hostileAddress is a transfer destination — any non-empty string is one —
// that needs every escape encoding/json knows: HTML, quote, control, the
// two line separators, a non-ASCII rune and an invalid UTF-8 byte.
const hostileAddress = Address("<to>&\"\\\n\u2028\u2029é\xff")

// TestAppendMatchesJSON drives every kind of transaction, receipt, block
// and ledger state the chain can produce and holds each encoding — and each
// RPC body built from it, in both directions — to encoding/json's.
func TestAppendMatchesJSON(t *testing.T) {
	f := newFixture(t, 6)
	w := &workload{t: t, bc: f.bc, nonces: map[Address]uint64{}}
	decodedFast := 0
	seal := func() {
		t.Helper()
		w.seal()
		checkLedgerEncoding(t, f.bc.led)
		b := w.blocks[len(w.blocks)-1]
		checkBlockEncoding(t, b)
		body, err := encodeResponse(1, b)
		if err != nil {
			t.Fatal(err)
		}
		checkReplyDecoding(t, append(body, '\n'))
		if decodeResponse(body, new(Block)) {
			decodedFast++
		}
		checkRequestEncoding(t, MethodSubmitTxBatch, nil, b.Txs)
		if req, err := encodeRequest(2, MethodSubmitTxBatch, nil, b.Txs); err == nil {
			checkRequestDecoding(t, req)
		}
	}
	genesis, err := f.bc.BlockAt(0)
	if err != nil {
		t.Fatal(err)
	}
	checkBlockEncoding(t, genesis) // "txs":null,"receipts":null
	checkLedgerEncoding(t, f.bc.led)

	accounts, params := f.accounts, f.params
	for i, a := range accounts {
		w.submit(a, FnDepositSubmit, nil, MinDeposit(params, i, 5e9))
	}
	w.submit(accounts[0], FnTransfer, TransferArgs{To: accounts[1].Address()}, 1_000)
	w.submit(accounts[1], FnTransfer, TransferArgs{To: hostileAddress}, 500)
	w.submit(accounts[4], FnTransfer, TransferArgs{To: ZeroAddress}, 100)
	w.submit(accounts[0], FnTransfer, "junk", 100)
	w.submit(accounts[5], FnTransfer, TransferArgs{To: accounts[0].Address()}, 1<<60)
	w.submit(accounts[2], Function("no<such>\"fn\""), map[string]any{"k": "<v>", "n": []any{nil, 1.5}}, 0)
	seal()
	// The invalid byte reaches the ledger as U+FFFD: the transfer's args
	// are themselves JSON. (Raw invalid keys: FuzzChainEncodeMatchesJSON.)
	if f.bc.Balance(Address(strings.ToValidUTF8(string(hostileAddress), "\ufffd"))) != 500 {
		t.Fatal("the hostile address holds no balance: the ledger case is not exercised")
	}
	if _, failed := okAndFailed(w.blocks[0]); failed < 4 {
		t.Fatalf("block 1 has %d failed receipts, want the failure gauntlet", failed)
	}
	for i, a := range accounts {
		w.submit(a, FnContributionSubmit, Contribution{D: 0.15 * float64(i+1), F: 3e9 + 1e-7*float64(i)}, 0)
	}
	seal()
	seal() // empty: "txs":null,"receipts":[]
	if _, err := f.bc.Promote(); err != nil {
		t.Fatal(err)
	}
	w.submit(accounts[0], FnPayoffCalculate, nil, 0)
	for _, a := range accounts {
		w.submit(a, FnPayoffTransfer, nil, 0)
		w.submit(a, FnProfileRecord, nil, 0)
	}
	seal()
	if b := w.blocks[len(w.blocks)-1]; b.Term != 1 || len(f.bc.led.Contract.Records) != len(accounts) {
		t.Fatalf("settled block has term %d and %d records, want term 1 and %d", b.Term, len(f.bc.led.Contract.Records), len(accounts))
	}
	if decodedFast < 2 {
		t.Fatalf("the one-pass decoder took %d of %d block replies, want the plain settlement blocks", decodedFast, len(w.blocks))
	}

	// Commit–reveal: member records carry a commitment.
	cr := newFixture(t, 3)
	cw := &workload{t: t, bc: cr.bc, nonces: map[Address]uint64{}}
	contribs := []Contribution{{D: 0.9, F: 5e9}, {D: 0.5, F: 4e9}, {D: 0.1, F: 3e9}}
	for i, a := range cr.accounts {
		cw.submit(a, FnDepositSubmit, nil, MinDeposit(cr.params, i, 5e9))
		cw.submit(a, FnContributionCommit, CommitArgs{Hash: CommitmentHash(contribs[i], "salt")}, 0)
	}
	cw.seal()
	checkLedgerEncoding(t, cr.bc.led)
	for i, a := range cr.accounts {
		cw.submit(a, FnContributionReveal, RevealArgs{Contribution: contribs[i], Salt: "salt"}, 0)
	}
	cw.seal()
	checkLedgerEncoding(t, cr.bc.led)
	for _, b := range cw.blocks {
		if ok, failed := okAndFailed(b); failed != 0 || ok == 0 {
			t.Fatalf("commit–reveal block %d: %d ok, %d failed", b.Height, ok, failed)
		}
		checkBlockEncoding(t, b)
	}

	// Batch replies and the other request shapes.
	results := []SubmitResult{{TxHash: "ab", OK: true}, {TxHash: "cd", OK: true, Known: true, Error: "chain: transaction already known: cd pending"}, {Error: "chain: bad \"nonce\""}}
	for _, rs := range [][]SubmitResult{results, results[:2], {}, nil} {
		checkResultsEncoding(t, rs)
		body, err := encodeResponse(3, rs)
		if err != nil {
			t.Fatal(err)
		}
		checkReplyDecoding(t, body)
	}
	if got := new([]SubmitResult); !decodeResponse(mustEncode(t, results[:2]), got) || !reflect.DeepEqual(*got, results[:2]) {
		t.Fatalf("plain batch results were not decoded in one pass: %+v", *got)
	}
	trace := &obs.TraceContext{TraceID: strings.Repeat("ab", 16), SpanID: "00<1>"}
	tx := &w.blocks[0].Txs[0]
	for _, params := range []any{nil, tx, (*Transaction)(nil), []Transaction(nil), []Transaction{}, hostileAddress, uint64(7),
		map[string]any{"height": 1, "txIdx": 0}, math.Inf(1)} {
		checkRequestEncoding(t, MethodGetBlock, nil, params)
		checkRequestEncoding(t, "m\"<é>", trace, params)
		if req, err := encodeRequest(5, MethodSubmitTx, trace, params); err == nil {
			checkRequestDecoding(t, req)
		}
	}
	batch, err := encodeRequest(6, MethodSubmitTxBatch, nil, w.blocks[1].Txs)
	if err != nil {
		t.Fatal(err)
	}
	if !checkRequestDecoding(t, batch) {
		t.Fatal("a plain batch request was not decoded in one pass")
	}
}

func mustEncode(t testing.TB, result any) []byte {
	t.Helper()
	body, err := encodeResponse(1, result)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// FuzzChainEncodeMatchesJSON: whatever the fields hold, every append
// encoder writes encoding/json's bytes or returns its error.
func FuzzChainEncodeMatchesJSON(f *testing.F) {
	f.Add("3a5f", "depositSubmit", []byte(`{"d":0.5,"f":4e9}`), uint64(3), int64(100), []byte("0123456789abcdef0123456789abcdef"), []byte("sig"), "", uint64(0), math.Float64bits(0.5), math.Float64bits(4e9), uint8(0))
	f.Add(string(hostileAddress), "fn<&>", []byte(" {\"a\" : \"<\\u2028>\" }\n"), uint64(math.MaxUint64), int64(math.MinInt64), []byte{}, []byte{0xff}, "chain: bad \"nonce\"", uint64(7), math.Float64bits(1e-7), math.Float64bits(1e21), uint8(0xff))
	f.Add("", "", []byte(`{"unterminated`), uint64(0), int64(0), []byte(nil), []byte(nil), "\xff", uint64(1), math.Float64bits(math.NaN()), math.Float64bits(math.Inf(-1)), uint8(0x55))
	f.Add("a", "b", []byte(`null`), uint64(1), int64(-1), []byte("k"), []byte("s"), "e", uint64(2), math.Float64bits(-0.0), math.Float64bits(123456789.125), uint8(0xaa))
	f.Fuzz(func(t *testing.T, from, fn string, args []byte, nonce uint64, value int64, pub, sig []byte, text string, term, dBits, fBits uint64, shape uint8) {
		bit := func(k uint) bool { return shape&(1<<k) != 0 }
		tx := Transaction{From: Address(from), Nonce: nonce, Fn: Function(fn), Args: args, Value: Wei(value), PubKey: pub, Sig: sig}
		if bit(0) {
			tx.PubKey = nil
		}
		if bit(1) {
			tx.Sig = nil
		}
		plain := Transaction{From: "ab", Fn: FnPayoffTransfer, PubKey: []byte("key"), Sig: []byte("sig")}
		b := &Block{Height: nonce, PrevHash: text, StateRoot: from, TxRoot: fn, Sealer: pub, Term: term, Seal: sig,
			Txs:      []Transaction{plain, tx},
			Receipts: []Receipt{{TxHash: from, Height: term, OK: bit(2), Error: text}, {TxHash: "ab", OK: true}}}
		if bit(3) {
			b.Txs = nil
		}
		if bit(4) {
			b.Receipts, b.Sealer, b.Seal = []Receipt{}, nil, nil
		}
		checkBlockEncoding(t, b)
		checkTxEncoding(t, &tx)
		checkResultsEncoding(t, []SubmitResult{{TxHash: from, OK: bit(2), Known: bit(5), Error: text}, {OK: true}})
		checkRequestEncoding(t, fn, &obs.TraceContext{TraceID: from, SpanID: text}, []Transaction{tx})

		contrib := Contribution{D: math.Float64frombits(dBits), F: math.Float64frombits(fBits)}
		led := newLedger(&Contract{
			Params: ContractParams{Members: []Address{"m"}, Rho: [][]float64{{0}}, DataBits: []float64{1}, Gamma: contrib.F},
			MemberData: map[Address]memberState{
				Address(from): {Registered: bit(2), Deposit: Wei(value), Submitted: bit(5), Contribution: contrib, Commitment: text, Payoff: Wei(nonce)},
				Address(fn):   {Contribution: Contribution{D: 0.25, F: 3e9}, Recorded: true},
			},
			Calculated: bit(6), Settled: bit(7),
		})
		led.Balances[Address(from)] = Wei(value)
		led.Balances[Address(text)] = 1
		led.Balances["ab"] = 2
		led.Nonces[Address(fn)] = nonce
		if bit(6) {
			led.Contract.Records = []ProfileEntry{{Org: Address(text), Contribution: contrib, Payoff: Wei(value), Block: term}, {Org: "ab"}}
		}
		if bit(7) {
			led.Nonces, led.Contract.MemberData = nil, nil
		}
		checkLedgerEncoding(t, led)
	})
}

// FuzzChainDecodeMatchesJSON: on any body, each RPC end either decodes in
// one pass to exactly what encoding/json decodes, or hands the body to
// encoding/json and answers with its result and its error.
func FuzzChainDecodeMatchesJSON(f *testing.F) {
	plan := buildSettlePlan(f, 3)
	bc, err := NewBlockchain(plan.authority, plan.params, plan.alloc)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := bc.SubmitTxBatch(plan.txs); err != nil {
		f.Fatal(err)
	}
	if _, err := bc.SealBlock(); err != nil {
		f.Fatal(err)
	}
	var seeds [][]byte
	for h := uint64(0); h <= bc.Height(); h++ {
		b, err := bc.BlockAt(h)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, mustEncode(f, b))
		for _, method := range []string{MethodSubmitTxBatch, MethodSubmitTx, MethodGetBlock} {
			req, err := encodeRequest(int64(h), method, nil, b.Txs)
			if err != nil {
				f.Fatal(err)
			}
			seeds = append(seeds, req)
		}
	}
	seeds = append(seeds,
		mustEncode(f, []SubmitResult{{TxHash: "ab", OK: true}, {TxHash: "cd", OK: true, Known: true, Error: "known"}}),
		mustEncode(f, uint64(7)),
		[]byte(`{"jsonrpc":"2.0","id":4,"error":{"code":-32000,"message":"chain: bad nonce"}}`),
		[]byte(`{"jsonrpc":"2.0","id":1,"method":"tradefl_getBalance","trace":{"traceId":"00112233445566778899aabbccddeeff","spanId":"0011223344556677"},"params":"3a5f"}`),
		[]byte(`{"jsonrpc":"2.0","id":1,"method":"tradefl_submitTransaction","params":{"from":"ab","nonce":0,"fn":"transfer","args":{"to":"cd"},"value":5,"pubKey":"a2V5","sig":"c2ln"}}`),
	)
	// Every way out of the canonical form, applied to a real body.
	tx := `{"from":"ab","nonce":1,"fn":"transfer","args":{"to":"cd"},"value":5,"pubKey":"a2V5","sig":"c2ln"}`
	for _, variant := range []string{
		tx,
		strings.Replace(tx, `"ab"`, `"a\u0062"`, 1),                        // escape
		strings.Replace(tx, `"ab"`, `"é"`, 1),                              // non-ASCII
		strings.Replace(tx, `"ab"`, "\"a\tb\"", 1),                         // control byte
		strings.Replace(tx, `"from"`, `"From"`, 1),                         // case-folded key
		strings.Replace(tx, `"from":"ab",`, `"from":"ab","from":"zz",`, 1), // duplicate key
		strings.Replace(tx, `"nonce":1`, `"nonce":1,"memo":2`, 1),          // unknown key
		strings.Replace(tx, `"nonce":1`, `"nonce":null`, 1),
		strings.Replace(tx, `"nonce":1`, `"nonce":-0`, 1),
		strings.Replace(tx, `"nonce":1`, `"nonce":01`, 1),
		strings.Replace(tx, `"nonce":1`, `"nonce":1.0`, 1),
		strings.Replace(tx, `"nonce":1`, `"nonce":18446744073709551616`, 1),
		strings.Replace(tx, `"value":5`, `"value":-0`, 1),
		strings.Replace(tx, `"value":5`, `"value":9223372036854775808`, 1),
		strings.Replace(tx, `"a2V5"`, `"a2V5*"`, 1),    // outside the alphabet
		strings.Replace(tx, `"a2V5"`, "\"a2\nV5\"", 1), // base64 skips it, JSON does not
		strings.Replace(tx, `"a2V5"`, `"a2V"`, 1),      // unpadded
		strings.Replace(tx, `"a2V5"`, `null`, 1),
		strings.Replace(tx, `{"to":"cd"}`, `{"to" : "<cd>"}`, 1),
		strings.Replace(tx, `{"to":"cd"}`, `null`, 1),
		strings.Replace(tx, `{"to":"cd"}`, `[[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]]`, 1),
		strings.Replace(tx, `{"to":"cd"}`, `{"to":"cd"`, 1),
	} {
		seeds = append(seeds,
			[]byte(`{"jsonrpc":"2.0","id":1,"method":"tradefl_submitTransactionBatch","params":[`+variant+`]}`),
			[]byte(`{"jsonrpc":"2.0","id":1,"params":[`+variant+`],"method":"tradefl_submitTransactionBatch"}`),
			[]byte(`{"jsonrpc":"2.0","id":1,"result":{"height":1,"prevHash":"p","stateRoot":"s","txRoot":"t","txs":[`+variant+`],"receipts":[{"txHash":"h","height":1,"ok":false,"error":"e"}],"sealer":"a2V5","term":2,"seal":"c2ln"}} trailing`),
			[]byte(` {"jsonrpc":"2.0","id":1,"result":{"height":1,"txs":[`+variant+`],"receipts":null}}`+"\n"))
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkRequestDecoding(t, body)
		checkReplyDecoding(t, body)
	})
}

// TestTracedCallContinuesIntoServe: a request carrying a trace context is
// decoded by the one-pass path too, and the server still continues the
// caller's trace into its chain.rpc.serve span.
func TestTracedCallContinuesIntoServe(t *testing.T) {
	obs.EnableTracing(true)
	obs.ResetTraces()
	t.Cleanup(func() { obs.EnableTracing(false); obs.ResetTraces() })
	plan := buildSettlePlan(t, 2)
	bc, err := NewBlockchain(plan.authority, plan.params, plan.alloc)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(bc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	ctx, root := obs.Span(context.Background(), "test.settle")
	tc, ok := obs.TraceFromContext(ctx)
	if !ok {
		t.Fatal("no trace context with tracing enabled")
	}
	body, err := encodeRequest(1, MethodSubmitTxBatch, &tc, plan.txs[:2])
	if err != nil {
		t.Fatal(err)
	}
	if req := new(rpcRequest); !decodeRequest(body, req) || req.txs == nil || req.Trace == nil || *req.Trace != tc {
		t.Fatalf("a traced batch request was not decoded in one pass: %+v", req)
	}
	results, err := NewClient(srv.Addr()).SubmitTxBatchCtx(ctx, plan.txs[:2])
	if err != nil || len(results) != 2 || !results[0].OK || !results[1].OK {
		t.Fatalf("traced batch: %+v, %v", results, err)
	}
	root.End()
	// Close waits for the handler, whose deferred End publishes the span.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	for _, line := range obs.TraceTopology() {
		if line == "chain.rpc.serve "+tc.TraceID {
			return
		}
	}
	t.Fatalf("no chain.rpc.serve span under trace %s: %v", tc.TraceID, obs.TraceTopology())
}

// TestOversizedBatchStillRejected: a real transaction batch past the body
// limit is refused before any decoder sees it, with the 413 / −32001 of
// rpc_limit_test.go.
func TestOversizedBatchStillRejected(t *testing.T) {
	srv := limitTestServer(t)
	plan := buildSettlePlan(t, 2)
	tx := plan.txs[0]
	tx.Args = json.RawMessage(`"` + strings.Repeat("x", MaxRequestBody) + `"`)
	_, err := NewClient(srv.Addr()).SubmitTxBatch([]Transaction{tx})
	var rerr *RPCError
	if !errors.As(err, &rerr) || rerr.Code != CodeRequestTooLarge {
		t.Fatalf("oversized batch: %v, want RPCError %d", err, CodeRequestTooLarge)
	}
}
