package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 3}, 2},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.in); !almost(got, c.want) {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("Median mutated its input")
	}
}

func TestMeanSumMinMax(t *testing.T) {
	xs := []float64{2, 4, 6, 8}
	if !almost(Mean(xs), 5) {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if !almost(Min(xs), 2) || !almost(Max(xs), 8) {
		t.Error("Min/Max wrong")
	}
	if Mean(nil) != 0 || Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty slices must reduce to 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if !almost(Percentile(xs, 0), 1) {
		t.Error("P0 wrong")
	}
	if !almost(Percentile(xs, 100), 5) {
		t.Error("P100 wrong")
	}
	if !almost(Percentile(xs, 50), 3) {
		t.Error("P50 wrong")
	}
	if !almost(Percentile(xs, 25), 2) {
		t.Error("P25 wrong")
	}
	if !almost(Percentile(xs, -5), 1) || !almost(Percentile(xs, 200), 5) {
		t.Error("clamping wrong")
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile must be 0")
	}
	if Percentile([]float64{7}, 50) != 7 {
		t.Error("singleton percentile wrong")
	}
}

// boundedSamples maps arbitrary quick-generated floats into the domain
// this package actually reduces (counts and byte totals): finite values
// of moderate magnitude.
func boundedSamples(raw []float64) []float64 {
	xs := make([]float64, 0, len(raw))
	for _, x := range raw {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		xs = append(xs, math.Mod(x, 1e12))
	}
	return xs
}

func TestPercentileMatchesMedianProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := boundedSamples(raw)
		return almost(Percentile(xs, 50), Median(xs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, aRaw, bRaw uint8) bool {
		xs := boundedSamples(raw)
		a := float64(aRaw) / 255 * 100
		b := float64(bRaw) / 255 * 100
		if a > b {
			a, b = b, a
		}
		return Percentile(xs, a) <= Percentile(xs, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 9.99, -5, 100}
	h, err := NewHistogram(xs, 0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range h.Buckets {
		total += b
	}
	if total != len(xs) {
		t.Fatalf("buckets hold %d samples, want %d", total, len(xs))
	}
	// -5 clamps into bucket 0; 100 clamps into bucket 4.
	if h.Buckets[0] != 3 { // 0, 1, -5
		t.Fatalf("bucket 0 = %d, want 3", h.Buckets[0])
	}
	if h.Buckets[4] != 2 { // 9.99, 100
		t.Fatalf("bucket 4 = %d, want 2", h.Buckets[4])
	}
	if _, err := NewHistogram(xs, 0, 10, 0); err == nil {
		t.Fatal("zero buckets must error")
	}
	if _, err := NewHistogram(xs, 10, 0, 5); err == nil {
		t.Fatal("inverted range must error")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0 B"},
		{512, "512 B"},
		{2 * KB, "2.00 KB"},
		{256 * MB, "256.00 MB"},
		{int64(1.5 * GB), "1.50 GB"},
		{180 * TB, "180.00 TB"},
		{10 * PB, "10.00 PB"},
		{-TB, "-1.00 TB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.in); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestConversions(t *testing.T) {
	f := IntsToFloats([]int{1, 2, 3})
	if len(f) != 3 || f[2] != 3 {
		t.Fatal("IntsToFloats wrong")
	}
}

func TestMedianAgainstSortProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := boundedSamples(raw)
		if len(xs) == 0 {
			return Median(xs) == 0
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		med := Median(xs)
		// At least half the values are <= median and at least half >=.
		le, ge := 0, 0
		for _, x := range s {
			if x <= med+1e-12 {
				le++
			}
			if x >= med-1e-12 {
				ge++
			}
		}
		return le*2 >= len(s) && ge*2 >= len(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
