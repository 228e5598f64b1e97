//go:build race

package tensor

// raceEnabled lets allocation-count tests skip under the race detector,
// whose sync.Pool instrumentation allocates on Get/Put.
const raceEnabled = true
