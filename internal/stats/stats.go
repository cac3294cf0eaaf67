// Package stats provides the summary statistics used to reduce the
// simulated cluster measurements to the quantities the paper reports:
// medians of daily series (Fig. 3a, Fig. 3b), percentile spreads, simple
// histograms, and human-readable byte formatting (the paper reports
// terabytes per day).
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

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
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

// Histogram counts values into equal-width buckets spanning [lo, hi).
// Values outside the range are clamped into the first/last bucket.
type Histogram struct {
	Lo, Hi  float64
	Buckets []int
}

// NewHistogram builds a histogram of xs with n equal-width buckets over
// [lo, hi). n must be positive and hi > lo.
func NewHistogram(xs []float64, lo, hi float64, n int) (*Histogram, error) {
	if n <= 0 {
		return nil, fmt.Errorf("stats: bucket count %d must be positive", n)
	}
	if hi <= lo {
		return nil, fmt.Errorf("stats: invalid range [%v, %v)", lo, hi)
	}
	h := &Histogram{Lo: lo, Hi: hi, Buckets: make([]int, n)}
	width := (hi - lo) / float64(n)
	for _, x := range xs {
		b := int((x - lo) / width)
		if b < 0 {
			b = 0
		}
		if b >= n {
			b = n - 1
		}
		h.Buckets[b]++
	}
	return h, nil
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
	f := float64(n)
	switch {
	case n < 0:
		return "-" + FormatBytes(-n)
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
		return fmt.Sprintf("%d B", n)
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
