// Package stats provides the small numeric helpers shared by the
// benchmark harness and reports.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p'th percentile (0 < p <= 100) of xs by
// nearest-rank on a sorted copy (0 for empty input). The gateway
// overload tests compare p50/p99 latency with it.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// GCUPS converts a cell count and seconds to billion cell updates/second.
func GCUPS(cells int64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(cells) / seconds / 1e9
}

// PctDelta returns the signed percentage difference of got vs want.
func PctDelta(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	return (got - want) / want * 100
}

// FmtSeconds renders seconds with sensible precision.
func FmtSeconds(s float64) string {
	switch {
	case s >= 1000:
		return fmt.Sprintf("%.1f", s)
	case s >= 10:
		return fmt.Sprintf("%.2f", s)
	default:
		return fmt.Sprintf("%.3f", s)
	}
}
