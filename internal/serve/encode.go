package serve

import (
	"encoding/json"
	"strconv"
	"time"

	"tradefl/internal/jsonx"
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
		return dst, jsonx.UnsupportedValue(f)
	}
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(r.Index), 10)
	dst = append(dst, `,"plan":`...)
	dst = jsonx.AppendString(dst, r.Plan)
	if len(r.Profile) > 0 {
		dst = append(dst, `,"profile":[`...)
		for i, s := range r.Profile {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"d":`...)
			dst = jsonx.AppendFloat(dst, s.D)
			dst = append(dst, `,"f":`...)
			dst = jsonx.AppendFloat(dst, s.F)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"potential":`...)
	dst = jsonx.AppendFloat(dst, r.Potential)
	if len(r.Payoffs) > 0 {
		dst = append(dst, `,"payoffs":[`...)
		for i, p := range r.Payoffs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonx.AppendFloat(dst, p)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"socialWelfare":`...)
	dst = jsonx.AppendFloat(dst, r.SocialWelfare)
	if r.Iterations != 0 {
		dst = append(dst, `,"iterations":`...)
		dst = strconv.AppendInt(dst, int64(r.Iterations), 10)
	}
	dst = append(dst, `,"converged":`...)
	dst = strconv.AppendBool(dst, r.Converged)
	if r.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = jsonx.AppendString(dst, r.Error)
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
		if !jsonx.Finite(s.D) {
			return s.D, true
		}
		if !jsonx.Finite(s.F) {
			return s.F, true
		}
	}
	if !jsonx.Finite(r.Potential) {
		return r.Potential, true
	}
	for _, p := range r.Payoffs {
		if !jsonx.Finite(p) {
			return p, true
		}
	}
	return r.SocialWelfare, !jsonx.Finite(r.SocialWelfare)
}

// appendEncodeError appends the payload of an event whose value did not
// encode: the quoted error text, which is what streams have always sent.
func appendEncodeError(dst []byte, err error) []byte {
	return strconv.AppendQuote(dst, err.Error())
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
		dst = jsonx.AppendString(dst, errMsg)
		dst = append(dst, ',')
	}
	dst = append(dst, `"id":`...)
	dst = jsonx.AppendString(dst, id)
	dst = append(dst, `,"instances":`...)
	dst = strconv.AppendInt(dst, int64(instances), 10)
	dst = append(dst, `,"state":`...)
	dst = jsonx.AppendString(dst, string(state))
	if traceID != "" {
		dst = append(dst, `,"traceId":`...)
		dst = jsonx.AppendString(dst, traceID)
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
	dst = jsonx.AppendString(dst, id)
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
	dst = jsonx.AppendString(dst, string(state))
	return append(dst, '}')
}

// appendGBDProgress appends one CGBD iteration's progress payload. A bound
// JSON cannot carry — the −Inf lower bound of an iteration without an
// incumbent, and the +Inf gap it implies — turns the whole payload into
// json.Marshal's quoted error for the first such field.
func appendGBDProgress(dst []byte, instance, iteration int, lb, ub float64) []byte {
	gap := ub - lb
	for _, f := range [...]float64{gap, lb, ub} {
		if !jsonx.Finite(f) {
			return appendEncodeError(dst, jsonx.UnsupportedValue(f))
		}
	}
	dst = append(dst, `{"gap":`...)
	dst = jsonx.AppendFloat(dst, gap)
	dst = append(dst, `,"instance":`...)
	dst = strconv.AppendInt(dst, int64(instance), 10)
	dst = append(dst, `,"iteration":`...)
	dst = strconv.AppendInt(dst, int64(iteration), 10)
	dst = append(dst, `,"lowerBound":`...)
	dst = jsonx.AppendFloat(dst, lb)
	dst = append(dst, `,"upperBound":`...)
	dst = jsonx.AppendFloat(dst, ub)
	return append(dst, '}')
}

// appendDBRProgress appends one DBR sweep's progress payload.
func appendDBRProgress(dst []byte, instance, iteration int, potential float64) []byte {
	if !jsonx.Finite(potential) {
		return appendEncodeError(dst, jsonx.UnsupportedValue(potential))
	}
	dst = append(dst, `{"instance":`...)
	dst = strconv.AppendInt(dst, int64(instance), 10)
	dst = append(dst, `,"iteration":`...)
	dst = strconv.AppendInt(dst, int64(iteration), 10)
	dst = append(dst, `,"potential":`...)
	dst = jsonx.AppendFloat(dst, potential)
	return append(dst, '}')
}

// encodeJobStatus renders the job status document as encoding/json's
// indenting encoder writes a JobStatus (two-space indent, trailing
// newline). Each result is laid out from its stored compact bytes straight
// into the document in one pass (jsonx.AppendIndent), so nothing here can
// fail: the error result is what the oracle tests were written against.
func encodeJobStatus(st *JobStatus) ([]byte, error) {
	size := 512 + len(st.Error)
	for _, r := range st.Results {
		size += 2*len(r) + 64 // indented, a result is ~1.8× its compact size
	}
	dst := make([]byte, 0, size)
	dst = append(dst, "{\n  \"id\": "...)
	dst = jsonx.AppendString(dst, st.ID)
	dst = append(dst, ",\n  \"tenant\": "...)
	dst = jsonx.AppendString(dst, st.Tenant)
	dst = append(dst, ",\n  \"state\": "...)
	dst = jsonx.AppendString(dst, string(st.State))
	dst = append(dst, ",\n  \"instances\": "...)
	dst = strconv.AppendInt(dst, int64(st.Instances), 10)
	dst = append(dst, ",\n  \"solved\": "...)
	dst = strconv.AppendInt(dst, int64(st.Solved), 10)
	if st.TraceID != "" {
		dst = append(dst, ",\n  \"traceId\": "...)
		dst = jsonx.AppendString(dst, st.TraceID)
	}
	if st.Error != "" {
		dst = append(dst, ",\n  \"error\": "...)
		dst = jsonx.AppendString(dst, st.Error)
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
		for i, r := range st.Results {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, "\n    "...)
			dst = jsonx.AppendIndent(dst, r, "    ")
		}
		dst = append(dst, "\n  ]"...)
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
