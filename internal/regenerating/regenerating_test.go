package regenerating

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	good := Params{N: 14, K: 10, D: 13}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{N: 14, K: 0, D: 13},
		{N: 10, K: 10, D: 9},
		{N: 14, K: 10, D: 9},  // d < k
		{N: 14, K: 10, D: 14}, // d > n-1
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted: %+v", i, p)
		}
	}
}

func TestMSRFacebookParameters(t *testing.T) {
	// (n=14, k=10, d=13): gamma_MSR = B*13/(10*4) = 0.325 B.
	p := Params{N: 14, K: 10, D: 13}
	pt, err := MSR(1, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pt.Alpha-0.1) > 1e-12 {
		t.Fatalf("MSR alpha %v, want 0.1 (storage optimal)", pt.Alpha)
	}
	if math.Abs(pt.Gamma-0.325) > 1e-12 {
		t.Fatalf("MSR gamma %v, want 0.325", pt.Gamma)
	}
	frac, err := RepairFractionBound(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(frac-0.325) > 1e-12 {
		t.Fatalf("bound %v, want 0.325", frac)
	}
}

func TestMSRToyParameters(t *testing.T) {
	// (4,2,3): gamma = B*3/(2*2) = 0.75 B. Even the optimum cannot beat
	// 0.75 for the toy code — the paper's 3/4 download is optimal!
	pt, err := MSR(1, Params{N: 4, K: 2, D: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pt.Gamma-0.75) > 1e-12 {
		t.Fatalf("toy MSR gamma %v, want 0.75", pt.Gamma)
	}
}

func TestMBRFacebookParameters(t *testing.T) {
	// MBR trades storage for bandwidth: gamma_MBR < gamma_MSR but
	// alpha_MBR > B/k ("high redundancy", §5).
	p := Params{N: 14, K: 10, D: 13}
	msr, _ := MSR(1, p)
	mbr, err := MBR(1, p)
	if err != nil {
		t.Fatal(err)
	}
	if mbr.Gamma >= msr.Gamma {
		t.Fatalf("MBR gamma %v not below MSR %v", mbr.Gamma, msr.Gamma)
	}
	if mbr.Alpha <= msr.Alpha {
		t.Fatalf("MBR alpha %v not above MDS minimum %v", mbr.Alpha, msr.Alpha)
	}
	if mbr.Alpha != mbr.Gamma {
		t.Fatal("MBR stores exactly what a repair downloads")
	}
	// Closed form: 2*13/(10*(26-10+1)) = 26/170.
	if math.Abs(mbr.Gamma-26.0/170.0) > 1e-12 {
		t.Fatalf("MBR gamma %v, want %v", mbr.Gamma, 26.0/170.0)
	}
}

func TestPointsSatisfyCutSet(t *testing.T) {
	f := func(nRaw, kRaw, dRaw uint8) bool {
		k := 1 + int(kRaw%12)
		n := k + 1 + int(nRaw%8)
		d := k + int(dRaw)%(n-k)
		p := Params{N: n, K: k, D: d}
		if p.Validate() != nil {
			return true
		}
		const B = 1e6
		for _, mk := range []func(float64, Params) (Point, error){MSR, MBR} {
			pt, err := mk(B, p)
			if err != nil {
				return false
			}
			cap, err := CutSetCapacity(pt.Alpha, pt.Beta, p)
			if err != nil {
				return false
			}
			// The point must support the file (within float tolerance)
			// and be tight: shrinking beta by 1% must break it unless
			// alpha already dominates every term.
			if cap < B*(1-1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMoreHelpersCheaperRepair(t *testing.T) {
	// gamma_MSR decreases in d: connecting to more nodes reduces the
	// minimum download — the regenerating-codes insight the paper
	// echoes ("connecting to more nodes and downloading smaller
	// amounts of data from each node").
	prev := math.Inf(1)
	for d := 10; d <= 13; d++ {
		pt, err := MSR(1, Params{N: 14, K: 10, D: d})
		if err != nil {
			t.Fatal(err)
		}
		if pt.Gamma >= prev {
			t.Fatalf("gamma not decreasing at d=%d: %v >= %v", d, pt.Gamma, prev)
		}
		prev = pt.Gamma
	}
}

func TestInvalidFileSizes(t *testing.T) {
	p := Params{N: 4, K: 2, D: 3}
	if _, err := MSR(0, p); err == nil {
		t.Fatal("zero file size accepted")
	}
	if _, err := MBR(-1, p); err == nil {
		t.Fatal("negative file size accepted")
	}
	if _, err := CutSetCapacity(-1, 0, p); err == nil {
		t.Fatal("negative alpha accepted")
	}
}

// CutSetCapacity returns the maximum file size supportable at per-node
// storage alpha and per-helper download beta:
//
//	sum_{i=0}^{k-1} min(alpha, (d-i)*beta).
func CutSetCapacity(alpha, beta float64, p Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if alpha < 0 || beta < 0 {
		return 0, errors.New("regenerating: alpha and beta must be non-negative")
	}
	var capacity float64
	for i := 0; i < p.K; i++ {
		term := float64(p.D-i) * beta
		if alpha < term {
			term = alpha
		}
		capacity += term
	}
	return capacity, nil
}
