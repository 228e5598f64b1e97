package main

import (
	"math"
	"sort"
	"time"
)

// tailCandidates are the percentiles a tail metric may report, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// minBeyond is the number of samples that must lie beyond a reported
// percentile: fewer, and the "tail" is a handful of outliers that does not
// repeat between runs.
const minBeyond = 10

// supportedTail returns the highest candidate percentile not above want
// that still keeps minBeyond of n samples beyond it, or 50 when the sample
// is too small for any tail.
func supportedTail(n int, want float64) float64 {
	for _, p := range tailCandidates {
		if p <= want && float64(n)*(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 50
}

// percentile returns the nearest-rank p-th percentile of an ascending
// sample (0 when empty).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// median returns the middle of xs (mean of the two middles when even)
// without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func us(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
func msf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ms converts durations to an ascending millisecond sample.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = msf(d)
	}
	sort.Float64s(out)
	return out
}

// ratio is a/b, 0 when the base is empty — a layer that did no work on a
// workload reports 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
