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

// AppendIndent appends src laid out as json.Indent(·, src, prefix, "  ")
// lays it out, for a src that is valid compact JSON — what this package's
// encoders and json.Compact write. It trusts that: strings and scalars are
// copied whole and only the six structural bytes outside strings are acted
// on, so any other input comes out rearranged, not refused.
func AppendIndent(dst, src []byte, prefix string) []byte {
	depth := 0
	for i := 0; i < len(src); {
		c, j := src[i], i+1
		switch c {
		case '{', '[':
			dst = append(dst, c)
			if j < len(src) && (src[j] == '}' || src[j] == ']') { // empty: stays closed
				dst = append(dst, src[j])
				j++
				break
			}
			depth++
			dst = appendBreak(dst, prefix, depth)
		case ',':
			dst = appendBreak(append(dst, c), prefix, depth)
		case ':':
			dst = append(dst, ':', ' ')
		case '}', ']':
			depth--
			dst = append(appendBreak(dst, prefix, depth), c)
		case '"':
			for j < len(src) && src[j] != '"' {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			j = min(j+1, len(src))
			dst = append(dst, src[i:j]...)
		default: // a number, true, false or null runs to the next , } ]
			for j < len(src) && src[j] != ',' && src[j] != '}' && src[j] != ']' {
				j++
			}
			dst = append(dst, src[i:j]...)
		}
		i = j
	}
	return dst
}

// appendBreak starts a line at the given depth.
func appendBreak(dst []byte, prefix string, depth int) []byte {
	dst = append(append(dst, '\n'), prefix...)
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}
