package chain

import (
	"bytes"
	"encoding/json"
	"reflect"

	"tradefl/internal/jsonx"
	"tradefl/internal/obs"
)

// The canonical-form decoders of the two RPC ends — the request envelope
// with its transactions on the server, the response envelope with a block
// or a batch's results on the client — and of a logged tx or block record,
// read by recovery and by a standby. Each reads its body once with a
// jsonx.Cursor, member by member in the order this package's encoders
// write them, and reports false on anything else; the caller then decodes
// the body with encoding/json from its first byte, as it always did. What
// is accepted decodes to the values encoding/json produces
// (FuzzChainDecodeMatchesJSON).
type decoder struct{ jsonx.Cursor }

// txsHint sizes a transaction array ahead of its elements: one settlement
// stage of the 32-member game.
const txsHint = 32

func (d *decoder) tx(t *Transaction) bool {
	if !(d.Lit("{") && d.Member("from") && d.Str((*string)(&t.From)) &&
		d.Member("nonce") && d.Uint64(&t.Nonce) &&
		d.Member("fn") && d.Str((*string)(&t.Fn))) {
		return false
	}
	if d.Member("args") {
		raw, ok := d.Raw()
		if !ok {
			return false
		}
		t.Args = bytes.Clone(raw)
	}
	return d.Member("value") && d.Int64((*int64)(&t.Value)) &&
		d.Member("pubKey") && d.Bytes(&t.PubKey) &&
		d.Member("sig") && d.Bytes(&t.Sig) && d.Lit("}")
}

func (d *decoder) txs(out *[]Transaction) bool {
	return jsonx.DecodeSlice(&d.Cursor, out, txsHint, d.tx)
}

func (d *decoder) receipt(r *Receipt) bool {
	return d.Lit("{") && d.Member("txHash") && d.Str(&r.TxHash) &&
		d.Member("height") && d.Uint64(&r.Height) &&
		d.Member("ok") && d.Bool(&r.OK) &&
		(!d.Member("error") || d.Str(&r.Error)) && d.Lit("}")
}

func (d *decoder) block(b *Block) bool {
	return d.Lit("{") && d.Member("height") && d.Uint64(&b.Height) &&
		d.Member("prevHash") && d.Str(&b.PrevHash) &&
		d.Member("stateRoot") && d.Str(&b.StateRoot) &&
		d.Member("txRoot") && d.Str(&b.TxRoot) &&
		d.Member("txs") && d.txs(&b.Txs) &&
		d.Member("receipts") && jsonx.DecodeSlice(&d.Cursor, &b.Receipts, len(b.Txs), d.receipt) &&
		d.Member("sealer") && d.Bytes(&b.Sealer) &&
		(!d.Member("term") || d.Uint64(&b.Term)) &&
		d.Member("seal") && d.Bytes(&b.Seal) && d.Lit("}")
}

func (d *decoder) submitResults(out *[]SubmitResult) bool {
	return jsonx.DecodeSlice(&d.Cursor, out, txsHint, func(r *SubmitResult) bool {
		return d.Lit("{") && (!d.Member("txHash") || d.Str(&r.TxHash)) &&
			d.Member("ok") && d.Bool(&r.OK) &&
			(!d.Member("known") || d.Bool(&r.Known)) &&
			(!d.Member("error") || d.Str(&r.Error)) && d.Lit("}")
	})
}

// decodeRequest decodes body into req when body is a request in canonical
// form. A transaction batch is decoded in the same pass into req.txs
// (non-nil then, as for encoding/json an empty array is); any other
// parameters stay raw in req.Params. On false req may be partly filled and
// must be discarded.
func decodeRequest(body []byte, req *rpcRequest) bool {
	d := decoder{jsonx.NewCursor(body)}
	if !(d.Lit("{") && d.Member("jsonrpc") && d.Str(&req.JSONRPC) &&
		d.Member("id") && d.Int64(&req.ID) &&
		d.Member("method") && d.Str(&req.Method)) {
		return false
	}
	if d.Member("trace") {
		req.Trace = new(obs.TraceContext)
		if !(d.Lit("{") && d.Member("traceId") && d.Str(&req.Trace.TraceID) &&
			d.Member("spanId") && d.Str(&req.Trace.SpanID) && d.Lit("}")) {
			return false
		}
	}
	if d.Member("params") {
		if req.Method == MethodSubmitTxBatch {
			if !d.txs(&req.txs) {
				return false
			}
		} else if raw, ok := d.Raw(); ok {
			req.Params = bytes.Clone(raw)
		} else {
			return false
		}
	}
	return d.Lit("}") && d.End()
}

// decodeResponse decodes a successful response in canonical form into out
// when out is a fresh *Block or *[]SubmitResult — what SealBlock, getBlock
// and SubmitTxBatch reply with. An error object, any other out, or an out
// already holding something (encoding/json would merge into it) is left to
// encoding/json; out is written only on true.
func decodeResponse(body []byte, out any) bool {
	switch o := out.(type) {
	case *Block:
		return o != nil && reflect.ValueOf(o).Elem().IsZero() && decodeResult(body, o, (*decoder).block)
	case *[]SubmitResult:
		return o != nil && *o == nil && decodeResult(body, o, (*decoder).submitResults)
	}
	return false
}

func decodeResult[T any](body []byte, out *T, result func(*decoder, *T) bool) bool {
	var (
		d       = decoder{jsonx.NewCursor(body)}
		version string
		id      int64
		fresh   T
	)
	ok := d.Lit("{") && d.Member("jsonrpc") && d.Str(&version) &&
		d.Member("id") && d.Int64(&id) &&
		d.Member("result") && result(&d, &fresh) && d.Lit("}") && d.End()
	if ok {
		*out = fresh
	}
	return ok
}

// decodeWalRec decodes one logged record into rec: a tx or block record in
// the form encodeWalRec writes in one pass, anything else (a genesis or
// term record) with encoding/json.
func decodeWalRec(payload []byte, rec *walRec) error {
	var (
		d    = decoder{jsonx.NewCursor(payload)}
		kind string
		ok   bool
	)
	if d.Lit("{") && d.Member("kind") && d.Str(&kind) {
		switch kind {
		case recTx:
			tx := new(Transaction)
			ok = d.Member("tx") && d.tx(tx) && d.Lit("}") && d.End()
			*rec = walRec{Kind: kind, Tx: tx}
		case recBlock:
			b := new(Block)
			ok = d.Member("block") && d.block(b) && d.Lit("}") && d.End()
			*rec = walRec{Kind: kind, Block: b}
		}
	}
	if ok {
		return nil
	}
	*rec = walRec{}
	return json.Unmarshal(payload, rec)
}
