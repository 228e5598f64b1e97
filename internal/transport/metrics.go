package transport

import "tradefl/internal/obs"

var tLog = obs.Component("transport")

// Telemetry of the message fabric. The frame-loss counters exist so chaos
// runs (internal/faults, internal/chaos) can distinguish injected message
// loss from the transport's own parser/overflow loss.
var (
	mFrameMalform = obs.NewCounter("tradefl_transport_frames_malformed_total", "TCP frames dropped because they failed to parse as JSON")
	mFrameOverrun = obs.NewCounter("tradefl_transport_frames_overflow_total", "TCP connections aborted because a frame exceeded the scanner buffer")
	mInboxDropped = obs.NewCounter("tradefl_transport_inbox_dropped_total", "parsed TCP frames dropped because the inbox was full")
)
