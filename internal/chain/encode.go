package chain

import (
	"encoding/json"
	"slices"
	"strconv"

	"tradefl/internal/jsonx"
)

// This file is the chain's one encoder of what it signs, hashes, logs and
// replies with: every byte is the byte encoding/json writes for the struct
// (same field order, omitempty rules, escaping, null for a nil slice),
// appended without reflection. The encoding/json forms are the oracles in
// encode_test.go. Nothing here is kept on a Transaction or a Block: a hash
// is always recomputed from the fields, so a rewritten field changes it.

// appendTx appends tx's JSON document. Without the signature it is the
// signed payload: the same members up to pubKey, and the closing brace.
func appendTx(dst []byte, tx *Transaction, withSig bool) ([]byte, error) {
	dst = jsonx.AppendString(append(dst, `{"from":`...), string(tx.From))
	dst = strconv.AppendUint(append(dst, `,"nonce":`...), tx.Nonce, 10)
	dst = jsonx.AppendString(append(dst, `,"fn":`...), string(tx.Fn))
	if len(tx.Args) > 0 {
		c := jsonx.NewCursor(tx.Args)
		raw, ok := c.Raw()
		if !ok || len(raw) != len(tx.Args) {
			// Whitespace, an escape, <, > or & to rewrite, or no JSON at
			// all: encoding/json's compaction, or its error.
			var err error
			if raw, err = json.Marshal(tx.Args); err != nil {
				return dst, err
			}
		}
		dst = append(append(dst, `,"args":`...), raw...)
	}
	dst = strconv.AppendInt(append(dst, `,"value":`...), int64(tx.Value), 10)
	dst = jsonx.AppendBytes(append(dst, `,"pubKey":`...), tx.PubKey)
	if withSig {
		dst = jsonx.AppendBytes(append(dst, `,"sig":`...), tx.Sig)
	}
	return append(dst, '}'), nil
}

// sizeHint is a generous guess at tx's encoded length.
func (tx *Transaction) sizeHint() int {
	return 160 + len(tx.From) + len(tx.Fn) + len(tx.Args) + (len(tx.PubKey)+len(tx.Sig))*4/3
}

// appendArray appends vs as a JSON array of elem's output, null for a nil
// slice.
func appendArray[T any](dst []byte, vs []T, elem func([]byte, *T) ([]byte, error)) ([]byte, error) {
	if vs == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = elem(dst, &vs[i]); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

func appendSignedTx(dst []byte, tx *Transaction) ([]byte, error) { return appendTx(dst, tx, true) }

func appendReceipt(dst []byte, r *Receipt) ([]byte, error) {
	dst = jsonx.AppendString(append(dst, `{"txHash":`...), r.TxHash)
	dst = strconv.AppendUint(append(dst, `,"height":`...), r.Height, 10)
	dst = strconv.AppendBool(append(dst, `,"ok":`...), r.OK)
	if r.Error != "" {
		dst = jsonx.AppendString(append(dst, `,"error":`...), r.Error)
	}
	return append(dst, '}'), nil
}

// appendBlock appends b's JSON document. Without the seal it is the header
// payload the authority signs: the same members up to term.
func appendBlock(dst []byte, b *Block, withSeal bool) ([]byte, error) {
	dst = strconv.AppendUint(append(dst, `{"height":`...), b.Height, 10)
	dst = jsonx.AppendString(append(dst, `,"prevHash":`...), b.PrevHash)
	dst = jsonx.AppendString(append(dst, `,"stateRoot":`...), b.StateRoot)
	dst = jsonx.AppendString(append(dst, `,"txRoot":`...), b.TxRoot)
	dst, err := appendArray(append(dst, `,"txs":`...), b.Txs, appendSignedTx)
	if err != nil {
		return dst, err
	}
	dst, _ = appendArray(append(dst, `,"receipts":`...), b.Receipts, appendReceipt)
	dst = jsonx.AppendBytes(append(dst, `,"sealer":`...), b.Sealer)
	if b.Term != 0 {
		dst = strconv.AppendUint(append(dst, `,"term":`...), b.Term, 10)
	}
	if withSeal {
		dst = jsonx.AppendBytes(append(dst, `,"seal":`...), b.Seal)
	}
	return append(dst, '}'), nil
}

// txSizeHint is a generous guess at one settlement transaction's encoded
// length (≈ 330 bytes) where summing sizeHints is not worth a loop.
const txSizeHint = 448

// sizeHint is a generous guess at b's encoded length; long arguments or a
// failed receipt's text grow the buffer past it.
func (b *Block) sizeHint() int { return 512 + txSizeHint*len(b.Txs) + 160*len(b.Receipts) }

func appendSubmitResult(dst []byte, r *SubmitResult) ([]byte, error) {
	dst = append(dst, '{')
	if r.TxHash != "" {
		dst = append(jsonx.AppendString(append(dst, `"txHash":`...), r.TxHash), ',')
	}
	dst = strconv.AppendBool(append(dst, `"ok":`...), r.OK)
	if r.Known {
		dst = append(dst, `,"known":true`...)
	}
	if r.Error != "" {
		dst = jsonx.AppendString(append(dst, `,"error":`...), r.Error)
	}
	return append(dst, '}'), nil
}

// appendMap appends m as encoding/json writes a map: null when nil, else
// its members in the bytewise order of their keys.
func appendMap[V any](dst []byte, m map[Address]V, val func([]byte, V) []byte) []byte {
	if m == nil {
		return append(dst, "null"...)
	}
	keys := make([]Address, 0, len(m))
	for a := range m {
		keys = append(keys, a)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, a := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = val(append(jsonx.AppendString(dst, string(a)), ':'), m[a])
	}
	return append(dst, '}')
}

// appendJSON appends the ledger's JSON form, the document the state root
// hashes. The contract parameters — for a 32-member game a thousand ρ
// floats, nine tenths of the document — cannot change after deployment and
// are encoded once per ledger. A contribution JSON cannot carry (a NaN, an
// infinity) yields json.Marshal's error for the first one in document
// order.
func (led *ledger) appendJSON(dst []byte) ([]byte, error) {
	c := led.Contract
	if led.paramsJSON == nil {
		raw, err := json.Marshal(c.Params)
		if err != nil {
			return dst, err
		}
		led.paramsJSON = raw
	}
	var bad error
	contribution := func(dst []byte, c Contribution) []byte {
		for _, f := range [...]float64{c.D, c.F} {
			if bad == nil && !jsonx.Finite(f) {
				bad = jsonx.UnsupportedValue(f)
			}
		}
		dst = jsonx.AppendFloat(append(dst, `{"d":`...), c.D)
		return append(jsonx.AppendFloat(append(dst, `,"f":`...), c.F), '}')
	}
	wei := func(dst []byte, w Wei) []byte { return strconv.AppendInt(dst, int64(w), 10) }
	dst = appendMap(append(dst, `{"balances":`...), led.Balances, wei)
	dst = appendMap(append(dst, `,"nonces":`...), led.Nonces, func(dst []byte, n uint64) []byte {
		return strconv.AppendUint(dst, n, 10)
	})
	dst = append(append(dst, `,"contract":{"params":`...), led.paramsJSON...)
	dst = appendMap(append(dst, `,"memberData":`...), c.MemberData, func(dst []byte, ms memberState) []byte {
		dst = strconv.AppendBool(append(dst, `{"registered":`...), ms.Registered)
		dst = wei(append(dst, `,"deposit":`...), ms.Deposit)
		dst = strconv.AppendBool(append(dst, `,"submitted":`...), ms.Submitted)
		dst = contribution(append(dst, `,"contribution":`...), ms.Contribution)
		if ms.Commitment != "" {
			dst = jsonx.AppendString(append(dst, `,"commitment":`...), ms.Commitment)
		}
		dst = wei(append(dst, `,"payoff":`...), ms.Payoff)
		return append(strconv.AppendBool(append(dst, `,"recorded":`...), ms.Recorded), '}')
	})
	dst = strconv.AppendBool(append(dst, `,"calculated":`...), c.Calculated)
	dst = strconv.AppendBool(append(dst, `,"settled":`...), c.Settled)
	dst, _ = appendArray(append(dst, `,"records":`...), c.Records, func(dst []byte, e *ProfileEntry) ([]byte, error) {
		dst = jsonx.AppendString(append(dst, `{"org":`...), string(e.Org))
		dst = contribution(append(dst, `,"contribution":`...), e.Contribution)
		dst = wei(append(dst, `,"payoff":`...), e.Payoff)
		return append(strconv.AppendUint(append(dst, `,"block":`...), e.Block, 10), '}'), nil
	})
	return append(dst, "}}"...), bad
}
