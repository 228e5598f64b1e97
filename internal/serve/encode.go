package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// appendInstanceResult appends r's JSON document to dst: the bytes
// json.Marshal(r) returns — same field order, omitempty rules, float
// formatting and string escaping — built without reflection. It is the one
// encoder of an InstanceResult: the sync reply, the instance and result
// events and the status document all carry its output. A result holding a
// NaN or an infinity has no JSON form; it gets json.Marshal's error text
// and dst comes back unchanged.
func appendInstanceResult(dst []byte, r *InstanceResult) ([]byte, error) {
	if f, ok := r.nonFinite(); ok {
		return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(r.Index), 10)
	dst = append(dst, `,"plan":`...)
	dst = appendJSONString(dst, r.Plan)
	if len(r.Profile) > 0 {
		dst = append(dst, `,"profile":[`...)
		for i, s := range r.Profile {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"d":`...)
			dst = appendJSONFloat(dst, s.D)
			dst = append(dst, `,"f":`...)
			dst = appendJSONFloat(dst, s.F)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"potential":`...)
	dst = appendJSONFloat(dst, r.Potential)
	if len(r.Payoffs) > 0 {
		dst = append(dst, `,"payoffs":[`...)
		for i, p := range r.Payoffs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONFloat(dst, p)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"socialWelfare":`...)
	dst = appendJSONFloat(dst, r.SocialWelfare)
	if r.Iterations != 0 {
		dst = append(dst, `,"iterations":`...)
		dst = strconv.AppendInt(dst, int64(r.Iterations), 10)
	}
	dst = append(dst, `,"converged":`...)
	dst = strconv.AppendBool(dst, r.Converged)
	if r.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, r.Error)
	}
	return append(dst, '}'), nil
}

// sizeHint is a generous guess at r's encoded length, so that one
// allocation holds the document.
func (r *InstanceResult) sizeHint() int {
	return 192 + 72*len(r.Profile) + len(r.Error)
}

// nonFinite returns the first NaN or infinity in r, in field order — the
// value json.Marshal would stop at.
func (r *InstanceResult) nonFinite() (float64, bool) {
	bad := func(f float64) bool { return math.IsNaN(f) || math.IsInf(f, 0) }
	for _, s := range r.Profile {
		if bad(s.D) {
			return s.D, true
		}
		if bad(s.F) {
			return s.F, true
		}
	}
	if bad(r.Potential) {
		return r.Potential, true
	}
	for _, p := range r.Payoffs {
		if bad(p) {
			return p, true
		}
	}
	return r.SocialWelfare, bad(r.SocialWelfare)
}

// appendJSONFloat formats a finite f as encoding/json does (the ES6
// number-to-string rule): shortest round-trip digits, exponent form below
// 1e-6 and from 1e21, and a one-digit negative exponent written e-7, not
// e-07.
func appendJSONFloat(dst []byte, f float64) []byte {
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

// appendJSONString quotes s. Plan names and most error texts are printable
// ASCII free of the bytes JSON or encoding/json's HTML-safe mode escape
// (quote, backslash, <, >, &), and are copied between quotes; any other
// string takes encoding/json's own escaping.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// encodeSyncReply renders the POST /v1/solve reply: {"results":[…]} and a
// newline.
func encodeSyncReply(results []InstanceResult) ([]byte, error) {
	size := 16
	for i := range results {
		size += results[i].sizeHint()
	}
	dst := append(make([]byte, 0, size), `{"results":[`...)
	for i := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendInstanceResult(dst, &results[i]); err != nil {
			return nil, err
		}
	}
	return append(dst, "]}\n"...), nil
}
