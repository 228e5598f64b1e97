package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"
)

// This file is the gateway's one encoder of solve documents: every byte of
// a sync reply, an SSE event payload and a job status document is appended
// here, and is the byte encoding/json writes for the struct forms kept as
// references in encode_test.go.

// appendInstanceResult appends r's JSON document to dst: the bytes
// json.Marshal(r) returns — same field order, omitempty rules, float
// formatting and string escaping — built without reflection. It is the one
// encoder of an InstanceResult: the sync reply, the instance and result
// events and the status document all carry its output. A result holding a
// NaN or an infinity has no JSON form; it gets json.Marshal's error text
// and dst comes back unchanged.
func appendInstanceResult(dst []byte, r *InstanceResult) ([]byte, error) {
	if f, ok := r.nonFinite(); ok {
		return dst, unsupportedValue(f)
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
	for _, s := range r.Profile {
		if !finite(s.D) {
			return s.D, true
		}
		if !finite(s.F) {
			return s.F, true
		}
	}
	if !finite(r.Potential) {
		return r.Potential, true
	}
	for _, p := range r.Payoffs {
		if !finite(p) {
			return p, true
		}
	}
	return r.SocialWelfare, !finite(r.SocialWelfare)
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// unsupportedValue is json.Marshal's error for a float JSON cannot carry.
func unsupportedValue(f float64) error {
	return fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
}

// appendEncodeError appends the payload of an event whose value did not
// encode: the quoted error text, which is what streams have always sent.
func appendEncodeError(dst []byte, err error) []byte {
	return strconv.AppendQuote(dst, err.Error())
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

// encodeStateEvent renders a state event's payload. Keys are in the
// alphabetical order encoding/json gives a map, which is what job events
// were first built from.
func encodeStateEvent(id string, instances int, state JobState, errMsg, traceID string) json.RawMessage {
	dst := append(make([]byte, 0, 96+len(id)+len(errMsg)+len(traceID)), '{')
	if errMsg != "" {
		dst = append(dst, `"error":`...)
		dst = appendJSONString(dst, errMsg)
		dst = append(dst, ',')
	}
	dst = append(dst, `"id":`...)
	dst = appendJSONString(dst, id)
	dst = append(dst, `,"instances":`...)
	dst = strconv.AppendInt(dst, int64(instances), 10)
	dst = append(dst, `,"state":`...)
	dst = appendJSONString(dst, string(state))
	if traceID != "" {
		dst = append(dst, `,"traceId":`...)
		dst = appendJSONString(dst, traceID)
	}
	return append(dst, '}')
}

// encodeResultEvent renders the terminal result event: the job's instance
// payloads, already encoded, joined into one array (null when there are
// none).
func encodeResultEvent(id string, results []json.RawMessage, state JobState) json.RawMessage {
	size := 48 + len(id)
	for _, r := range results {
		size += len(r) + 1
	}
	dst := append(make([]byte, 0, size), `{"id":`...)
	dst = appendJSONString(dst, id)
	dst = append(dst, `,"results":`...)
	if results == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, r := range results {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, r...)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"state":`...)
	dst = appendJSONString(dst, string(state))
	return append(dst, '}')
}

// appendGBDProgress appends one CGBD iteration's progress payload. A bound
// JSON cannot carry — the −Inf lower bound of an iteration without an
// incumbent, and the +Inf gap it implies — turns the whole payload into
// json.Marshal's quoted error for the first such field.
func appendGBDProgress(dst []byte, instance, iteration int, lb, ub float64) []byte {
	gap := ub - lb
	for _, f := range [...]float64{gap, lb, ub} {
		if !finite(f) {
			return appendEncodeError(dst, unsupportedValue(f))
		}
	}
	dst = append(dst, `{"gap":`...)
	dst = appendJSONFloat(dst, gap)
	dst = append(dst, `,"instance":`...)
	dst = strconv.AppendInt(dst, int64(instance), 10)
	dst = append(dst, `,"iteration":`...)
	dst = strconv.AppendInt(dst, int64(iteration), 10)
	dst = append(dst, `,"lowerBound":`...)
	dst = appendJSONFloat(dst, lb)
	dst = append(dst, `,"upperBound":`...)
	dst = appendJSONFloat(dst, ub)
	return append(dst, '}')
}

// appendDBRProgress appends one DBR sweep's progress payload.
func appendDBRProgress(dst []byte, instance, iteration int, potential float64) []byte {
	if !finite(potential) {
		return appendEncodeError(dst, unsupportedValue(potential))
	}
	dst = append(dst, `{"instance":`...)
	dst = strconv.AppendInt(dst, int64(instance), 10)
	dst = append(dst, `,"iteration":`...)
	dst = strconv.AppendInt(dst, int64(iteration), 10)
	dst = append(dst, `,"potential":`...)
	dst = appendJSONFloat(dst, potential)
	return append(dst, '}')
}

// encodeJobStatus renders the job status document as encoding/json's
// indenting encoder writes a JobStatus (two-space indent, trailing
// newline). Each result is indented from its stored bytes straight into the
// document; nothing is decoded, compacted or copied twice.
func encodeJobStatus(st *JobStatus) ([]byte, error) {
	size := 512 + len(st.Error)
	for _, r := range st.Results {
		size += 2*len(r) + 64 // indented, a result is ~1.8× its compact size
	}
	dst := make([]byte, 0, size)
	dst = append(dst, "{\n  \"id\": "...)
	dst = appendJSONString(dst, st.ID)
	dst = append(dst, ",\n  \"tenant\": "...)
	dst = appendJSONString(dst, st.Tenant)
	dst = append(dst, ",\n  \"state\": "...)
	dst = appendJSONString(dst, string(st.State))
	dst = append(dst, ",\n  \"instances\": "...)
	dst = strconv.AppendInt(dst, int64(st.Instances), 10)
	dst = append(dst, ",\n  \"solved\": "...)
	dst = strconv.AppendInt(dst, int64(st.Solved), 10)
	if st.TraceID != "" {
		dst = append(dst, ",\n  \"traceId\": "...)
		dst = appendJSONString(dst, st.TraceID)
	}
	if st.Error != "" {
		dst = append(dst, ",\n  \"error\": "...)
		dst = appendJSONString(dst, st.Error)
	}
	dst = append(dst, ",\n  \"createdAt\": "...)
	dst = appendJSONTime(dst, st.CreatedAt)
	if st.StartedAt != nil {
		dst = append(dst, ",\n  \"startedAt\": "...)
		dst = appendJSONTime(dst, *st.StartedAt)
	}
	if st.DoneAt != nil {
		dst = append(dst, ",\n  \"doneAt\": "...)
		dst = appendJSONTime(dst, *st.DoneAt)
	}
	if len(st.Results) > 0 {
		dst = append(dst, ",\n  \"results\": ["...)
		doc := bytes.NewBuffer(dst)
		for i, r := range st.Results {
			if i > 0 {
				doc.WriteByte(',')
			}
			doc.WriteString("\n    ")
			if err := json.Indent(doc, r, "    ", "  "); err != nil {
				return nil, err
			}
		}
		doc.WriteString("\n  ]")
		dst = doc.Bytes()
	}
	return append(dst, "\n}\n"...), nil
}

// appendJSONTime quotes t as time.Time.MarshalJSON does (RFC 3339 with
// nanoseconds). MarshalJSON also refuses years outside [0, 9999] and zone
// offsets of a day or more; a job's timestamps are time.Now() readings.
func appendJSONTime(dst []byte, t time.Time) []byte {
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"')
}
