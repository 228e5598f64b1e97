package obs

// LastRunSpan returns the most recent completed root span recorded under
// name, or nil.
func LastRunSpan(name string) *SpanNode {
	defaultRuns.mu.Lock()
	defer defaultRuns.mu.Unlock()
	return defaultRuns.spans[name]
}
