package jsonx

import (
	"bytes"
	"encoding/base64"
	"strconv"
)

// Cursor reads one JSON document in canonical form: what an encoder writes
// for a known struct — keys spelled as the json tags spell them, each once,
// plain ASCII strings, number literals where numbers go. It never guesses.
// Every method reports false when the bytes at the cursor are anything else
// — an escape, control or non-ASCII byte in a string, null, a key that is
// not byte-equal to a tag (unknown or case-folded), a duplicate key, a
// value of the wrong kind, a fraction, exponent or out-of-range literal for
// an integer, a number ParseFloat rejects, bytes outside the base64
// alphabet, a syntax error — and the cursor is meaningless from then on:
// the caller discards what was decoded and hands the document to
// encoding/json from its first byte, so the accepted set and every error
// text stay encoding/json's. Decoded values never alias the document; the
// one span that does, Raw's, is the caller's to copy.
type Cursor struct {
	b []byte
	i int
}

// NewCursor starts a cursor at the first byte of doc.
func NewCursor(doc []byte) Cursor { return Cursor{b: doc} }

// End reports whether only whitespace is left.
func (d *Cursor) End() bool {
	d.space()
	return d.i == len(d.b)
}

// Object decodes the object at the cursor, calling field once per member
// with the member's key (one of keys, at most 32) and the cursor on its
// value.
func (d *Cursor) Object(keys []string, field func(key string) bool) bool {
	if !d.Consume('{') {
		return false
	}
	if d.Consume('}') {
		return true
	}
	var seen uint32
	for {
		k := d.key(keys)
		if k < 0 || seen&(1<<k) != 0 || !d.Consume(':') || !field(keys[k]) {
			return false
		}
		seen |= 1 << k
		if !d.Consume(',') {
			return d.Consume('}')
		}
	}
}

// maxPresize caps how far a slice is sized ahead of the elements decoded
// into it: a body of commas cannot make the decoder allocate for bytes it
// has not read yet. Longer arrays grow by append.
const maxPresize = 64

// DecodeSlice decodes the array at the cursor into *out, elem decoding one
// element in place; hint sizes the slice. Like encoding/json, an empty
// array yields an empty, non-nil slice.
func DecodeSlice[T any](d *Cursor, out *[]T, hint int, elem func(*T) bool) bool {
	if !d.Consume('[') {
		return false
	}
	if d.Consume(']') {
		*out = []T{}
		return true
	}
	vs := make([]T, 0, min(hint, maxPresize))
	for {
		var zero T
		vs = append(vs, zero)
		if !elem(&vs[len(vs)-1]) {
			return false
		}
		if !d.Consume(',') {
			*out = vs
			return d.Consume(']')
		}
	}
}

// Floats decodes an array of numbers, sized from the commas before its
// closing bracket.
func (d *Cursor) Floats(out *[]float64) bool {
	hint := 0
	if end := bytes.IndexByte(d.b[d.i:], ']'); end > 0 {
		hint = bytes.Count(d.b[d.i:d.i+end], []byte{','}) + 1
	}
	return DecodeSlice(d, out, hint, d.Float)
}

// space skips JSON whitespace.
func (d *Cursor) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return
		}
	}
}

// Consume steps over c when it is the next byte, whitespace aside.
func (d *Cursor) Consume(c byte) bool {
	if d.i >= len(d.b) || d.b[d.i] != c { // not the compact form
		d.space()
	}
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// quoted steps over the string literal at the cursor and returns the bytes
// between its opening quote and the next quote. They are the string's value
// only if they hold no escape (an escaped quote ends the span early, after
// its backslash), which is the caller's to establish.
func (d *Cursor) quoted() ([]byte, bool) {
	if !d.Consume('"') {
		return nil, false
	}
	n := bytes.IndexByte(d.b[d.i:], '"')
	if n < 0 {
		return nil, false
	}
	span := d.b[d.i : d.i+n]
	d.i += n + 1
	return span, true
}

// key scans a member key and returns its position in keys, −1 when it is
// not byte-equal to any of them. No tag holds a backslash, a control or a
// non-ASCII byte, so a span equal to one is a key without escapes.
func (d *Cursor) key(keys []string) int {
	name, ok := d.quoted()
	if !ok {
		return -1
	}
	for k, want := range keys {
		if string(name) == want {
			return k
		}
	}
	return -1
}

// Str decodes a string of printable ASCII without escapes — the bytes that
// are their own decoding.
func (d *Cursor) Str(out *string) bool {
	span, ok := d.quoted()
	if !ok {
		return false
	}
	for _, c := range span {
		if c < 0x20 || c >= 0x80 || c == '\\' {
			return false
		}
	}
	*out = string(span)
	return true
}

// Bytes decodes a []byte from padded standard base64, as encoding/json
// does. A line break, which base64 skips, is no part of a JSON string.
func (d *Cursor) Bytes(out *[]byte) bool {
	span, ok := d.quoted()
	if !ok || bytes.ContainsAny(span, "\r\n") {
		return false
	}
	b := make([]byte, base64.StdEncoding.DecodedLen(len(span)))
	n, err := base64.StdEncoding.Decode(b, span)
	*out = b[:n]
	return err == nil
}

// Bool decodes true or false.
func (d *Cursor) Bool(out *bool) bool {
	d.space()
	*out = d.Lit("true")
	return *out || d.Lit("false")
}

// number scans one number literal by the RFC 8259 grammar (stricter than
// strconv: no leading zeros, plus sign, hex, underscores, inf or nan) and
// reports whether it is a plain integer, without fraction or exponent.
// What follows the literal is the caller's to check: it must be a comma or
// a closing bracket, so "01" or "1x" fail there.
func (d *Cursor) number() (lit []byte, integer, ok bool) {
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case digits(b, i) > 0:
		i += digits(b, i)
	default:
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		n := digits(b, i+1)
		if n == 0 {
			return nil, false, false
		}
		integer, i = false, i+1+n
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		n := digits(b, i)
		if n == 0 {
			return nil, false, false
		}
		integer, i = false, i+n
	}
	lit, d.i = b[d.i:i], i
	return lit, integer, true
}

// digits counts the decimal digits at b[i:].
func digits(b []byte, i int) int {
	n := 0
	for i+n < len(b) && '0' <= b[i+n] && b[i+n] <= '9' {
		n++
	}
	return n
}

// Float decodes a number.
func (d *Cursor) Float(out *float64) bool {
	d.space()
	lit, _, ok := d.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	*out = v
	return err == nil
}

// integer scans an integer literal; encoding/json refuses "1.0" and "1e2"
// for an integer field, so they are not canonical.
func (d *Cursor) integer() (string, bool) {
	d.space()
	lit, integer, ok := d.number()
	return string(lit), ok && integer
}

// Int decodes an integer that fits an int.
func (d *Cursor) Int(out *int) bool {
	lit, ok := d.integer()
	v, err := strconv.ParseInt(lit, 10, strconv.IntSize)
	*out = int(v)
	return ok && err == nil
}

// Int64 decodes an integer that fits an int64.
func (d *Cursor) Int64(out *int64) bool {
	lit, ok := d.integer()
	v, err := strconv.ParseInt(lit, 10, 64)
	*out = v
	return ok && err == nil
}

// Uint64 decodes an integer that fits a uint64 (to encoding/json a minus
// sign is an error there, even before a zero).
func (d *Cursor) Uint64(out *uint64) bool {
	lit, ok := d.integer()
	v, err := strconv.ParseUint(lit, 10, 64)
	*out = v
	return ok && err == nil
}

// Raw steps over one value in compact canonical form — no whitespace, no
// escape, every string byte plain under HTML-safe escaping, at most
// maxDepth levels — and returns its bytes, which alias the document: the
// form that encoding/json's Compact and HTML escaping leave unchanged, so
// a json.RawMessage holding it marshals to the same bytes.
func (d *Cursor) Raw() ([]byte, bool) {
	start := d.i
	if !d.value(0) {
		return nil, false
	}
	return d.b[start:d.i], true
}

const maxDepth = 16

func (d *Cursor) value(depth int) bool {
	if d.i >= len(d.b) || depth > maxDepth {
		return false
	}
	switch d.b[d.i] {
	case '{', '[':
		object, closer := d.b[d.i] == '{', "]"
		if object {
			closer = "}"
		}
		d.i++
		if d.Lit(closer) {
			return true
		}
		for {
			if object && !(d.plainString() && d.Lit(":")) {
				return false
			}
			if !d.value(depth + 1) {
				return false
			}
			if !d.Lit(",") {
				return d.Lit(closer)
			}
		}
	case '"':
		return d.plainString()
	case 't':
		return d.Lit("true")
	case 'f':
		return d.Lit("false")
	case 'n':
		return d.Lit("null")
	}
	_, _, ok := d.number()
	return ok
}

// Lit steps over s when it is next, with no whitespace allowance.
func (d *Cursor) Lit(s string) bool {
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// Member steps over the key of the next object member when it is "name":
// in compact form — after a comma, unless the member opens its object —
// and stays put when it is anything else. A struct whose encoder writes
// its members in one order is decoded as that sequence of Members, an
// omitempty one under an if; a missing, extra, repeated or reordered key
// then fails the next Member or the closing Lit("}").
func (d *Cursor) Member(name string) bool {
	at := d.i
	if (at > 0 && d.b[at-1] == '{' || d.Lit(",")) && d.Lit(`"`) && d.Lit(name) && d.Lit(`":`) {
		return true
	}
	d.i = at
	return false
}

// plainString steps over a string literal made of plain bytes only.
func (d *Cursor) plainString() bool {
	if !d.Lit(`"`) {
		return false
	}
	for d.i < len(d.b) {
		c := d.b[d.i]
		d.i++
		if c == '"' {
			return true
		}
		if !plain(c) {
			return false
		}
	}
	return false
}
