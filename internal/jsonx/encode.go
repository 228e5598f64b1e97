// Package jsonx is the one copy of this repository's hand-written JSON: the
// append primitives that write what encoding/json writes without
// reflection, and Cursor, a one-pass reader of the canonical form an
// encoder produces. Both are held to encoding/json by the oracle and fuzz
// tests of the packages that use them (serve: job specs and documents;
// chain: transactions, blocks, the ledger and the RPC envelopes), so every
// byte written and every value decoded is encoding/json's.
package jsonx

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// AppendFloat formats a finite f as encoding/json does (the ES6
// number-to-string rule): shortest round-trip digits, exponent form below
// 1e-6 and from 1e21, and a one-digit negative exponent written e-7, not
// e-07.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// Finite reports whether f has a JSON form.
func Finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// UnsupportedValue is json.Marshal's error for a float JSON cannot carry.
func UnsupportedValue(f float64) error {
	return fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
}

// plain reports whether c stands for itself inside a JSON string under
// encoding/json's HTML-safe escaping: printable ASCII other than the quote,
// the backslash and <, >, &.
func plain(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// AppendString quotes s. Names, addresses, hashes and most error texts are
// plain bytes and are copied between quotes; any other string takes
// encoding/json's own escaping.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain(s[i]) {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// AppendBytes writes b as encoding/json writes a []byte: padded standard
// base64 between quotes, null for a nil slice.
func AppendBytes(dst, b []byte) []byte {
	if b == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '"')
	dst = base64.StdEncoding.AppendEncode(dst, b)
	return append(dst, '"')
}
