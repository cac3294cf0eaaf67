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

func TestMinMax(t *testing.T) {
	xs := []float64{2, 4, 6, 8}
	if !almost(Min(xs), 2) || !almost(Max(xs), 8) {
		t.Error("Min/Max wrong")
	}
	if Min(nil) != 0 || Max(nil) != 0 {
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
		{-512, "-512 B"},
		{math.MinInt64, "-8192.00 PB"},
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
