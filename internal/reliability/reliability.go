// Package reliability implements the §3.2 mean-time-to-data-loss
// (MTTDL) analysis: a continuous-time birth-death Markov chain per
// stripe, where states count concurrently failed blocks, failures arrive
// at a per-node rate, and repairs complete at a rate inversely
// proportional to the bytes a repair must download.
//
// The paper argues that because Piggybacked-RS moves fewer bytes per
// repair, repairs finish sooner, so the chain spends less time in
// degraded states and the MTTDL exceeds that of RS at identical storage
// overhead. This package quantifies that claim and the §1 claim that
// (10,4) RS at 1.4x overhead matches or beats 3-way replication at 3x.
package reliability

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ec"
)

// System describes one redundancy scheme as seen by the Markov model.
type System struct {
	// Name labels the scheme in reports.
	Name string
	// Nodes is the stripe width (blocks per stripe): k+r for codes,
	// the replica count for replication.
	Nodes int
	// Tolerance is the maximum number of concurrent failures without
	// data loss: r for MDS codes, replicas-1 for replication.
	Tolerance int
	// RepairBytes is the expected number of bytes downloaded to repair
	// one failed node.
	RepairBytes float64
	// StorageOverhead is the scheme's storage multiplier.
	StorageOverhead float64
}

// ReplicationSystem models n-way replication of blocks of the given
// size: repairing a lost replica copies one block.
func ReplicationSystem(replicas int, blockBytes float64) (System, error) {
	if replicas < 2 {
		return System{}, fmt.Errorf("reliability: replication needs >= 2 replicas, got %d", replicas)
	}
	if blockBytes <= 0 {
		return System{}, errors.New("reliability: block size must be positive")
	}
	return System{
		Name:            fmt.Sprintf("replication(%d)", replicas),
		Nodes:           replicas,
		Tolerance:       replicas - 1,
		RepairBytes:     blockBytes,
		StorageOverhead: float64(replicas),
	}, nil
}

// CodeSystem models an erasure code: the repair cost is the average
// single-shard repair download reported by the code's own plans.
func CodeSystem(c ec.Code, blockBytes float64) (System, error) {
	if blockBytes <= 0 {
		return System{}, errors.New("reliability: block size must be positive")
	}
	// Plans scale linearly with (even) shard size; cost at size 2 gives
	// exact per-2-byte units.
	_, avgFraction, err := ec.RepairFraction(c, 2)
	if err != nil {
		return System{}, err
	}
	return System{
		Name:            c.Name(),
		Nodes:           c.TotalShards(),
		Tolerance:       c.ParityShards(),
		RepairBytes:     avgFraction * float64(c.DataShards()) * blockBytes,
		StorageOverhead: c.StorageOverhead(),
	}, nil
}

// Params are the environmental rates of the Markov model.
type Params struct {
	// NodeFailuresPerHour is the per-node failure (unavailability
	// leading to reconstruction) rate.
	NodeFailuresPerHour float64
	// RepairBytesPerHour is the bandwidth a single repair can consume.
	RepairBytesPerHour float64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.NodeFailuresPerHour <= 0 {
		return errors.New("reliability: NodeFailuresPerHour must be positive")
	}
	if p.RepairBytesPerHour <= 0 {
		return errors.New("reliability: RepairBytesPerHour must be positive")
	}
	return nil
}

// MTTDLHours computes the mean time (hours) until the stripe loses data:
// the expected absorption time of the birth-death chain started at zero
// failures.
//
// State s in [0, Tolerance] has failure rate (Nodes-s) * lambda to s+1
// and, for s > 0, repair rate mu = RepairBytesPerHour / RepairBytes back
// to s-1 (repairs are serialised, the conservative convention). State
// Tolerance+1 is absorbing (data loss).
func MTTDLHours(sys System, p Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if sys.Nodes <= 0 || sys.Tolerance < 0 || sys.Tolerance >= sys.Nodes {
		return 0, fmt.Errorf("reliability: invalid system %+v", sys)
	}
	if sys.RepairBytes <= 0 {
		return 0, fmt.Errorf("reliability: invalid repair bytes %v", sys.RepairBytes)
	}
	lambda := p.NodeFailuresPerHour
	mu := p.RepairBytesPerHour / sys.RepairBytes

	// For a birth-death chain, the expected time h_s to first move from
	// state s to state s+1 satisfies the stable recurrence
	//
	//	h_0 = 1 / l_0
	//	h_s = (1 + u_s * h_{s-1}) / l_s
	//
	// with birth (failure) rate l_s = (Nodes-s)*lambda and death
	// (repair) rate u_s = mu for s > 0. Every term is positive, so the
	// recurrence is numerically robust even for the stiff mu/lambda
	// ratios of real clusters (unlike a naive tridiagonal elimination).
	// The absorption time from 0 is the sum of the h_s.
	var t, h float64
	for s := 0; s <= sys.Tolerance; s++ {
		l := float64(sys.Nodes-s) * lambda
		if s == 0 {
			h = 1 / l
		} else {
			h = (1 + mu*h) / l
		}
		t += h
	}
	if math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
		return 0, fmt.Errorf("reliability: numeric failure computing MTTDL for %s", sys.Name)
	}
	return t, nil
}

// MTTDLYears is MTTDLHours scaled to years.
func MTTDLYears(sys System, p Params) (float64, error) {
	h, err := MTTDLHours(sys, p)
	if err != nil {
		return 0, err
	}
	return h / (24 * 365), nil
}

// DefaultParams returns rates typical of the measured cluster: a node
// suffers a recovery-triggering failure every ~6 months, and a repair
// can move ~50 MB/s of reconstruction traffic.
func DefaultParams() Params {
	return Params{
		NodeFailuresPerHour: 1.0 / (6 * 30 * 24),
		RepairBytesPerHour:  50e6 * 3600,
	}
}
