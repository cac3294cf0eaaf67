// Package regenerating implements the information-theoretic repair
// bounds of the regenerating-codes model (Dimakis et al., cited as [9]
// in the paper's related work): the cut-set lower bound on repair
// download, and its two extreme points — minimum-storage (MSR) and
// minimum-bandwidth (MBR) regenerating codes.
//
// The paper positions Piggybacked-RS against this theory: regenerating
// codes achieve the minimum possible repair download but existing
// constructions either need high redundancy or support at most three
// parities, while piggybacking keeps arbitrary (k, r) at storage
// optimality and takes a (good) fraction of the possible gain. This
// package quantifies exactly how much of the theoretical headroom the
// piggybacked code captures.
//
// Model: a file of B bytes is stored across n nodes, alpha bytes per
// node, such that any k nodes suffice to recover the file. A failed
// node is repaired from d surviving helpers (k <= d <= n-1), drawing
// beta bytes from each; the repair bandwidth is gamma = d*beta. The
// cut-set bound requires
//
//	sum_{i=0}^{k-1} min(alpha, (d-i)*beta) >= B.
package regenerating

import (
	"errors"
	"fmt"
)

// Params identifies a regenerating-code configuration.
type Params struct {
	// N is the total number of nodes (k+r for the codes in this repo).
	N int
	// K is the number of nodes sufficient to recover the file.
	K int
	// D is the number of helpers contacted during a repair.
	D int
}

// Validate reports whether the configuration is meaningful.
func (p Params) Validate() error {
	if p.K < 1 {
		return errors.New("regenerating: k must be >= 1")
	}
	if p.N <= p.K {
		return errors.New("regenerating: n must exceed k")
	}
	if p.D < p.K || p.D > p.N-1 {
		return fmt.Errorf("regenerating: d=%d outside [k=%d, n-1=%d]", p.D, p.K, p.N-1)
	}
	return nil
}

// Point is one operating point on the storage/repair-bandwidth
// trade-off curve, in bytes for a file of size B.
type Point struct {
	// Alpha is the per-node storage.
	Alpha float64
	// Beta is the download per helper during one repair.
	Beta float64
	// Gamma is the total repair download, d*beta.
	Gamma float64
}

// MSR returns the minimum-storage regenerating point: per-node storage
// is the MDS minimum B/k, and the repair download is
//
//	gamma_MSR = B*d / (k*(d-k+1))
//
// — the absolute floor for any storage-optimal code, the yardstick the
// paper's related work measures against.
func MSR(fileBytes float64, p Params) (Point, error) {
	if err := p.Validate(); err != nil {
		return Point{}, err
	}
	if fileBytes <= 0 {
		return Point{}, errors.New("regenerating: file size must be positive")
	}
	k, d := float64(p.K), float64(p.D)
	beta := fileBytes / (k * (d - k + 1))
	return Point{
		Alpha: fileBytes / k,
		Beta:  beta,
		Gamma: d * beta,
	}, nil
}

// MBR returns the minimum-bandwidth regenerating point: the repair
// download is the smallest achievable by any code,
//
//	gamma_MBR = 2*B*d / (2*k*d - k^2 + k),
//
// at the price of per-node storage alpha = gamma (above the MDS
// minimum — the "high redundancy" the paper's §5 notes).
func MBR(fileBytes float64, p Params) (Point, error) {
	if err := p.Validate(); err != nil {
		return Point{}, err
	}
	if fileBytes <= 0 {
		return Point{}, errors.New("regenerating: file size must be positive")
	}
	k, d := float64(p.K), float64(p.D)
	beta := 2 * fileBytes / (k * (2*d - k + 1))
	gamma := d * beta
	return Point{Alpha: gamma, Beta: beta, Gamma: gamma}, nil
}

// RepairFractionBound returns gamma_MSR / B for the configuration: the
// fraction of the stripe's logical size that the cheapest possible
// storage-optimal repair must download. For the paper's (10,4) with
// d = 13 this is 0.325 — Reed-Solomon downloads 1.0, Piggybacked-RS
// ~0.67 (data shards), so piggybacking captures roughly half of the
// theoretically available saving without any of the restrictions the
// paper's §5 lists for explicit regenerating constructions.
func RepairFractionBound(p Params) (float64, error) {
	pt, err := MSR(1, p)
	if err != nil {
		return 0, err
	}
	return pt.Gamma, nil
}
