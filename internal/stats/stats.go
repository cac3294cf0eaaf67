// Package stats provides the summary statistics used to reduce the
// simulated cluster measurements to the quantities the paper reports:
// medians of daily series (Fig. 3a, Fig. 3b), percentile spreads, and
// human-readable byte formatting (the paper reports terabytes per day).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Median returns the median of xs (mean of the two central elements for
// even lengths). It returns 0 for an empty slice.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	lo, hi := s[n/2-1], s[n/2]
	// Midpoint written to avoid overflow when both halves are huge.
	return lo + (hi-lo)/2
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It returns 0 for an empty
// slice and clamps p into range.
func Percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	// Interpolation written to avoid overflow for huge magnitudes.
	return s[lo] + (s[hi]-s[lo])*frac
}

// Byte size units used throughout the reproduction.
const (
	KB = 1 << 10
	MB = 1 << 20
	GB = 1 << 30
	TB = 1 << 40
	PB = 1 << 50
)

// FormatBytes renders a byte count the way the paper does ("180 TB",
// "256 MB"), choosing the largest unit that keeps the value >= 1.
func FormatBytes(n int64) string {
	if n < 0 {
		// Negate as a float: -n overflows for math.MinInt64.
		return "-" + formatMagnitude(-float64(n))
	}
	return formatMagnitude(float64(n))
}

func formatMagnitude(f float64) string {
	switch {
	case f >= PB:
		return fmt.Sprintf("%.2f PB", f/PB)
	case f >= TB:
		return fmt.Sprintf("%.2f TB", f/TB)
	case f >= GB:
		return fmt.Sprintf("%.2f GB", f/GB)
	case f >= MB:
		return fmt.Sprintf("%.2f MB", f/MB)
	case f >= KB:
		return fmt.Sprintf("%.2f KB", f/KB)
	default:
		return fmt.Sprintf("%.0f B", f)
	}
}

// IntsToFloats converts an int series to float64 for the reducers.
func IntsToFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
