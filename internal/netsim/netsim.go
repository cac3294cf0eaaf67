// Package netsim is an event-driven, contention-aware model of the
// cluster fabric the paper's measurement study runs on. Where
// cluster.Network *accounts* bytes and cluster.BandwidthModel costs a
// repair in isolation, netsim answers the operational question of §2.2:
// what happens when many repairs, degraded reads, and foreground
// map-reduce flows share the same links at the same time.
//
// The model is a fluid-flow simulation. A Flow moves bytes from a
// source machine to a destination machine along a fixed path of links:
// the source NIC uplink, the source rack's TOR uplink, the aggregation
// switch, the destination rack's TOR downlink, and the destination NIC
// downlink (intra-rack flows skip the TOR and aggregation hops). Every
// link has a capacity in bytes/second, and the instantaneous rate of
// each flow is the max-min fair share computed by progressive filling
// over all concurrently active flows — the standard fluid approximation
// of per-connection TCP fairness. Flows in a higher priority class are
// allocated first and lower classes divide the residual capacity, which
// is how degraded reads preempt background repairs under the scheduler's
// priority-lane policy.
//
// A discrete event loop advances the clock between flow arrivals and
// completions, recomputing the allocation whenever the active set
// changes. Everything is deterministic: no wall clocks, no map-order
// iteration in rate computation, and all randomness comes from seeded
// generators owned by the callers.
package netsim

import (
	"errors"
	"fmt"
	"math"
)

// Class is a strict-priority class for bandwidth allocation. Higher
// classes are allocated their max-min shares first; lower classes
// divide what is left.
type Class int

const (
	// ClassBulk is the default class: background repairs and foreground
	// map-reduce traffic fair-share links within it.
	ClassBulk Class = iota
	// ClassPriority preempts bulk traffic — the degraded-read lane of
	// the scheduler's PolicyPriorityLanes.
	ClassPriority
	numClasses
)

// Topology describes the fabric: racks of machines behind TOR switches
// joined by one aggregation switch (Fig. 1), with capacities on every
// level. Machine ids are dense in [0, Racks*MachinesPerRack),
// rack-major, matching cluster.Topology.
type Topology struct {
	Racks           int
	MachinesPerRack int

	// NICBytesPerSec is each machine's NIC bandwidth, applied
	// independently to its uplink and downlink.
	NICBytesPerSec float64
	// TORUpBytesPerSec and TORDownBytesPerSec cap each rack's TOR
	// uplink (rack to aggregation) and downlink (aggregation to rack).
	// Production TORs are oversubscribed: the sum of member NICs
	// exceeds the TOR uplink.
	TORUpBytesPerSec   float64
	TORDownBytesPerSec float64
	// AggBytesPerSec caps the aggregation switch's total throughput.
	AggBytesPerSec float64
}

// DefaultTopology returns a 2013-era fabric: 1 GbE NICs, 5 Gb/s TOR
// up/downlinks (2.5:1 oversubscribed at 10 machines per rack), and a
// 40 Gb/s aggregation core.
//
//repolint:ignore deadexport ROADMAP 9: netsim is kept or deleted by its agreement with the live shaper
func DefaultTopology(racks, machinesPerRack int) Topology {
	return Topology{
		Racks:              racks,
		MachinesPerRack:    machinesPerRack,
		NICBytesPerSec:     125e6,
		TORUpBytesPerSec:   625e6,
		TORDownBytesPerSec: 625e6,
		AggBytesPerSec:     5e9,
	}
}

// Validate reports whether the topology is usable.
func (t Topology) Validate() error {
	if t.Racks <= 0 || t.MachinesPerRack <= 0 {
		return fmt.Errorf("netsim: invalid topology %d racks x %d machines", t.Racks, t.MachinesPerRack)
	}
	if t.NICBytesPerSec <= 0 || t.TORUpBytesPerSec <= 0 || t.TORDownBytesPerSec <= 0 || t.AggBytesPerSec <= 0 {
		return errors.New("netsim: all link capacities must be positive")
	}
	return nil
}

// Machines returns the total machine count.
func (t Topology) Machines() int { return t.Racks * t.MachinesPerRack }

// RackOf returns the rack hosting the machine.
func (t Topology) RackOf(machine int) int { return machine / t.MachinesPerRack }

// Link indices within a fabric. Layout:
//
//	[0, M)            machine NIC uplinks
//	[M, 2M)           machine NIC downlinks
//	[2M, 2M+R)        TOR uplinks
//	[2M+R, 2M+2R)     TOR downlinks
//	2M+2R             aggregation switch
type fabric struct {
	topo     Topology
	capacity []float64
}

func newFabric(t Topology) (*fabric, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	m, r := t.Machines(), t.Racks
	f := &fabric{topo: t, capacity: make([]float64, 2*m+2*r+1)}
	for i := 0; i < m; i++ {
		f.capacity[i] = t.NICBytesPerSec
		f.capacity[m+i] = t.NICBytesPerSec
	}
	for i := 0; i < r; i++ {
		f.capacity[2*m+i] = t.TORUpBytesPerSec
		f.capacity[2*m+r+i] = t.TORDownBytesPerSec
	}
	f.capacity[2*m+2*r] = t.AggBytesPerSec
	return f, nil
}

// path returns the link indices a src->dst flow traverses. A loopback
// (src == dst) touches no links and runs at unbounded rate.
func (f *fabric) path(src, dst int) []int {
	if src == dst {
		return nil
	}
	m, r := f.topo.Machines(), f.topo.Racks
	srcRack, dstRack := f.topo.RackOf(src), f.topo.RackOf(dst)
	if srcRack == dstRack {
		return []int{src, m + dst}
	}
	return []int{src, 2*m + srcRack, 2*m + 2*r, 2*m + r + dstRack, m + dst}
}

// rateEpsilon guards progressive filling against floating-point
// residue: a link with less than this fraction of its capacity left is
// considered full.
const rateEpsilon = 1e-9

// computeRates assigns each active flow its max-min fair rate,
// allocating strict-priority classes from highest to lowest. flows must
// be in a deterministic order; the allocation iterates slices only, so
// identical inputs always produce identical rates.
func (f *fabric) computeRates(flows []*Flow) {
	residual := make([]float64, len(f.capacity))
	copy(residual, f.capacity)
	for class := numClasses - 1; class >= 0; class-- {
		f.progressiveFill(flows, Class(class), residual)
	}
}

// progressiveFill runs the classic water-filling algorithm for the
// flows of one class over the residual link capacities, writing each
// flow's rate and subtracting what it allocated from residual.
func (f *fabric) progressiveFill(flows []*Flow, class Class, residual []float64) {
	var active []*Flow
	users := make([]int, len(f.capacity)) // per-link unfrozen flow count
	for _, fl := range flows {
		if fl.Class != class {
			continue
		}
		fl.rate = 0
		if len(fl.links) == 0 {
			// Loopback: no shared links, effectively infinite rate.
			fl.rate = math.Inf(1)
			continue
		}
		fl.frozen = false
		active = append(active, fl)
		for _, l := range fl.links {
			users[l]++
		}
	}
	unfrozen := len(active)
	for unfrozen > 0 {
		// Bottleneck share: the smallest per-flow headroom across links
		// carrying unfrozen flows.
		delta := math.Inf(1)
		for _, fl := range active {
			if fl.frozen {
				continue
			}
			for _, l := range fl.links {
				if share := residual[l] / float64(users[l]); share < delta {
					delta = share
				}
			}
		}
		if math.IsInf(delta, 1) {
			break
		}
		if delta < 0 {
			delta = 0
		}
		// Raise every unfrozen flow by delta and drain the links.
		for _, fl := range active {
			if fl.frozen {
				continue
			}
			fl.rate += delta
			for _, l := range fl.links {
				residual[l] -= delta
			}
		}
		// Freeze flows riding a saturated link; at least the bottleneck
		// link's flows freeze each round, so the loop terminates.
		froze := 0
		for _, fl := range active {
			if fl.frozen {
				continue
			}
			for _, l := range fl.links {
				if residual[l] <= rateEpsilon*f.capacity[l] {
					fl.frozen = true
					break
				}
			}
			if fl.frozen {
				for _, l := range fl.links {
					users[l]--
				}
				froze++
			}
		}
		unfrozen -= froze
		if froze == 0 {
			// Floating-point corner: no link crossed the saturation
			// threshold. The allocation is already max-min to within
			// epsilon; stop rather than loop.
			break
		}
	}
}
