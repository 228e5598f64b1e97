package obs

// LastRunSpan returns the most recent completed root span recorded under
// name in the trace store, or nil.
func LastRunSpan(name string) *SpanNode {
	roots := defaultTraces.snapshot()
	for i := len(roots) - 1; i >= 0; i-- {
		if roots[i].Name == name {
			return roots[i]
		}
	}
	return nil
}
