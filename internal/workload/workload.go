// Package workload generates the stochastic inputs of the measurement
// study: the daily machine-unavailability process behind Fig. 3a, the
// per-event block-loss process behind Fig. 3b, and the block-size
// mixture that converts block counts into bytes.
//
// The production traces are Facebook-internal, so each process is a
// seeded synthetic generator calibrated to the statistics the paper
// publishes:
//
//   - median > 50 machine-unavailability events per day, with incident
//     days spiking towards ~350 (Fig. 3a);
//   - a median of 95,500 RS blocks reconstructed per day (Fig. 3b);
//   - a median of > 180 TB of cross-rack recovery traffic per day under
//     (10,4) RS (Fig. 3b), which pins the mean recovered-block size near
//     198 MB (180 TB / (95,500 blocks x 10 downloads) ≈ 198 MB — blocks
//     are nominally 256 MB but files are not multiples of 2.5 GB, so
//     stripes carry truncated tails).
//
// Everything is deterministic given Config.Seed, so the RS and
// Piggybacked-RS costings in the simulator replay the identical failure
// trace and differ only in repair traffic.
package workload

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
)

// Config parameterises trace generation. DefaultConfig returns the
// paper-calibrated values; tests use smaller ones.
type Config struct {
	// Seed drives all randomness in the trace.
	Seed int64
	// Days is the length of the trace (the paper uses 34 days for
	// Fig. 3a and 24 days for Fig. 3b).
	Days int
	// Machines is the cluster size ("a few thousand machines").
	Machines int

	// BaseEventsPerDay is the Poisson mean of routine daily
	// machine-unavailability events (>15 min), before incidents.
	BaseEventsPerDay float64
	// IncidentProb is the per-day probability of a correlated incident
	// (rack maintenance, bad kernel push) adding a burst of events.
	IncidentProb float64
	// IncidentMin/IncidentMax bound the burst size of an incident day.
	IncidentMin, IncidentMax int

	// TriggerProb is the fraction of unavailability events that outlive
	// the wait-time and trigger block recovery (most machines return
	// before the cluster re-replicates everything they hold).
	TriggerProb float64
	// IncidentTriggerProb is the trigger probability for the extra
	// events of an incident day. Correlated unavailability (a rack
	// switch reboot, a bad kernel push) usually resolves without data
	// loss, so these events rarely cause reconstruction — which is why
	// Fig. 3a spikes to ~350 while Fig. 3b stays within ~250 TB/day.
	IncidentTriggerProb float64
	// BlocksPerTriggerMedian and BlocksPerTriggerSigma parameterise the
	// lognormal number of RS blocks actually reconstructed per
	// triggering event.
	BlocksPerTriggerMedian float64
	BlocksPerTriggerSigma  float64
	// MaxBlocksPerMachine caps a single event's loss at the number of
	// RS blocks a machine can hold.
	MaxBlocksPerMachine int

	// BlockBytes is the nominal HDFS block size (256 MB in the paper).
	BlockBytes int64
	// FullBlockProb is the probability a recovered block is full-sized;
	// otherwise its size is uniform in [MinBlockBytes, BlockBytes].
	FullBlockProb float64
	// MinBlockBytes bounds truncated tail blocks from below.
	MinBlockBytes int64
}

// DefaultConfig returns the configuration calibrated to the paper's
// published medians (see the package comment for the derivation).
func DefaultConfig() Config {
	return Config{
		Seed:                   1,
		Days:                   24,
		Machines:               3000,
		BaseEventsPerDay:       52,
		IncidentProb:           0.10,
		IncidentMin:            30,
		IncidentMax:            300,
		TriggerProb:            0.35,
		IncidentTriggerProb:    0.05,
		BlocksPerTriggerMedian: 4600,
		BlocksPerTriggerSigma:  0.6,
		MaxBlocksPerMachine:    17500,
		BlockBytes:             256 << 20,
		FullBlockProb:          0.48,
		MinBlockBytes:          32 << 20,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Days <= 0:
		return errors.New("workload: Days must be positive")
	case c.Machines <= 0:
		return errors.New("workload: Machines must be positive")
	case c.BaseEventsPerDay < 0:
		return errors.New("workload: BaseEventsPerDay must be non-negative")
	case c.IncidentProb < 0 || c.IncidentProb > 1:
		return errors.New("workload: IncidentProb must be in [0,1]")
	case c.IncidentMin < 0 || c.IncidentMax < c.IncidentMin:
		return errors.New("workload: incident bounds invalid")
	case c.TriggerProb < 0 || c.TriggerProb > 1:
		return errors.New("workload: TriggerProb must be in [0,1]")
	case c.IncidentTriggerProb < 0 || c.IncidentTriggerProb > 1:
		return errors.New("workload: IncidentTriggerProb must be in [0,1]")
	case c.BlocksPerTriggerMedian <= 0:
		return errors.New("workload: BlocksPerTriggerMedian must be positive")
	case c.BlocksPerTriggerSigma < 0:
		return errors.New("workload: BlocksPerTriggerSigma must be non-negative")
	case c.MaxBlocksPerMachine <= 0:
		return errors.New("workload: MaxBlocksPerMachine must be positive")
	case c.BlockBytes <= 0 || c.BlockBytes%2 != 0:
		return errors.New("workload: BlockBytes must be positive and even")
	case c.FullBlockProb < 0 || c.FullBlockProb > 1:
		return errors.New("workload: FullBlockProb must be in [0,1]")
	case c.MinBlockBytes <= 0 || c.MinBlockBytes > c.BlockBytes:
		return errors.New("workload: MinBlockBytes must be in (0, BlockBytes]")
	}
	return nil
}

// TriggeredEvent is one machine-unavailability event that triggered
// block recovery.
type TriggeredEvent struct {
	// Machine is the unavailable machine's id.
	Machine int `json:"machine"`
	// BlocksLost is the number of RS blocks reconstructed because of
	// this event.
	BlocksLost int `json:"blocks_lost"`
	// SizeSeed deterministically drives the per-block size and
	// shard-position draws during replay, so alternative codes can be
	// costed on the identical trace without storing per-block records.
	SizeSeed int64 `json:"size_seed"`
}

// Day is one day of the trace.
type Day struct {
	// Index is the day number, starting at 0.
	Index int `json:"index"`
	// Unavailable is the Fig. 3a quantity: machines unavailable for
	// more than 15 minutes during this day.
	Unavailable int `json:"unavailable"`
	// Triggered lists the subset of events that led to recovery.
	Triggered []TriggeredEvent `json:"triggered"`
}

// BlocksLost sums the blocks lost across the day's triggered events.
func (d *Day) BlocksLost() int {
	n := 0
	for _, e := range d.Triggered {
		n += e.BlocksLost
	}
	return n
}

// Trace is a generated (or loaded) multi-day failure trace.
type Trace struct {
	Config Config `json:"config"`
	Days   []Day  `json:"days"`
}

// Generate builds a deterministic trace from the configuration.
func Generate(cfg Config) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := &Trace{Config: cfg, Days: make([]Day, cfg.Days)}
	for d := 0; d < cfg.Days; d++ {
		day := Day{Index: d}
		base := poisson(rng, cfg.BaseEventsPerDay)
		incident := 0
		if rng.Float64() < cfg.IncidentProb {
			incident = cfg.IncidentMin + rng.Intn(cfg.IncidentMax-cfg.IncidentMin+1)
		}
		day.Unavailable = base + incident
		for e := 0; e < base+incident; e++ {
			p := cfg.TriggerProb
			if e >= base {
				p = cfg.IncidentTriggerProb
			}
			if rng.Float64() >= p {
				continue
			}
			blocks := lognormalInt(rng, cfg.BlocksPerTriggerMedian, cfg.BlocksPerTriggerSigma)
			if blocks > cfg.MaxBlocksPerMachine {
				blocks = cfg.MaxBlocksPerMachine
			}
			if blocks == 0 {
				blocks = 1
			}
			day.Triggered = append(day.Triggered, TriggeredEvent{
				Machine:    rng.Intn(cfg.Machines),
				BlocksLost: blocks,
				SizeSeed:   rng.Int63(),
			})
		}
		tr.Days[d] = day
	}
	return tr, nil
}

// BlockDraw describes one reconstructed block during replay.
type BlockDraw struct {
	// Bytes is the block's size (always even, for substripe codes).
	Bytes int64
	// StripePos is the block's position within its (k+r)-block stripe,
	// uniform over the stripe width: failures do not distinguish data
	// from parity blocks.
	StripePos int
}

// ReplayBlocks invokes fn for each block lost in the event, with sizes
// and stripe positions drawn deterministically from the event's
// SizeSeed. stripeWidth is k+r of the code being costed. Sizes and
// positions come from independent generators so that codes with
// different stripe widths (RS at 14, LRC at 16) see byte-identical
// block sizes when replaying the same trace.
func (e TriggeredEvent) ReplayBlocks(cfg Config, stripeWidth int, fn func(BlockDraw)) {
	sizeRng := rand.New(rand.NewSource(e.SizeSeed))
	posRng := rand.New(rand.NewSource(e.SizeSeed ^ 0x5DEECE66DABC1234))
	for i := 0; i < e.BlocksLost; i++ {
		var size int64
		if sizeRng.Float64() < cfg.FullBlockProb {
			size = cfg.BlockBytes
		} else {
			span := cfg.BlockBytes - cfg.MinBlockBytes
			size = cfg.MinBlockBytes + sizeRng.Int63n(span+1)
		}
		size &^= 1 // keep even for substripe codecs
		fn(BlockDraw{Bytes: size, StripePos: posRng.Intn(stripeWidth)})
	}
}

// SampleBlocks deterministically samples up to max of the day's lost
// blocks by stride over the full replay order, preserving each draw's
// size and stripe position exactly as ReplayBlocks would produce it.
// Contention studies use it to simulate a representative subset of a
// day's repairs without replaying millions of flows; two codes sampling
// the same day with the same stripeWidth see identical draws.
func (d *Day) SampleBlocks(cfg Config, stripeWidth, max int) []BlockDraw {
	if max <= 0 {
		return nil
	}
	total := d.BlocksLost()
	if total == 0 {
		return nil
	}
	stride := (total + max - 1) / max
	out := make([]BlockDraw, 0, max)
	idx := 0
	for _, ev := range d.Triggered {
		ev.ReplayBlocks(cfg, stripeWidth, func(b BlockDraw) {
			if idx%stride == 0 && len(out) < max {
				out = append(out, b)
			}
			idx++
		})
	}
	return out
}

// MeanBlockBytes returns the expected recovered-block size under the
// configuration's mixture.
//
//repolint:ignore deadexport oracle for sim's TestRSCostIsExactlyTenBlocks
func (c Config) MeanBlockBytes() float64 {
	uniformMean := float64(c.MinBlockBytes+c.BlockBytes) / 2
	return c.FullBlockProb*float64(c.BlockBytes) + (1-c.FullBlockProb)*uniformMean
}

// UnavailableSeries returns the Fig. 3a day series.
func (t *Trace) UnavailableSeries() []int {
	out := make([]int, len(t.Days))
	for i := range t.Days {
		out[i] = t.Days[i].Unavailable
	}
	return out
}

// WriteJSON serialises the trace.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// ReadJSON loads a trace written by WriteJSON and validates its config
// and every day against the invariants Generate guarantees, so an
// edited or foreign trace cannot feed the study a negative count or an
// event larger than a machine can hold.
func ReadJSON(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("workload: decoding trace: %w", err)
	}
	if err := t.Config.Validate(); err != nil {
		return nil, err
	}
	if len(t.Days) != t.Config.Days {
		return nil, fmt.Errorf("workload: trace has %d days, config says %d", len(t.Days), t.Config.Days)
	}
	for i := range t.Days {
		if err := t.Days[i].validate(i, t.Config); err != nil {
			return nil, err
		}
	}
	return &t, nil
}

// validate checks day i of a trace: its index, at least as many
// unavailable machines as triggered events, and every event on a real
// machine losing between 1 and MaxBlocksPerMachine blocks.
func (d *Day) validate(i int, cfg Config) error {
	if d.Index != i {
		return fmt.Errorf("workload: day %d has index %d", i, d.Index)
	}
	if d.Unavailable < len(d.Triggered) {
		return fmt.Errorf("workload: day %d has %d unavailable machines but %d triggered events", i, d.Unavailable, len(d.Triggered))
	}
	for _, e := range d.Triggered {
		if e.Machine < 0 || e.Machine >= cfg.Machines {
			return fmt.Errorf("workload: day %d: machine %d outside [0, %d)", i, e.Machine, cfg.Machines)
		}
		if e.BlocksLost < 1 || e.BlocksLost > cfg.MaxBlocksPerMachine {
			return fmt.Errorf("workload: day %d: machine %d lost %d blocks, want 1..%d", i, e.Machine, e.BlocksLost, cfg.MaxBlocksPerMachine)
		}
	}
	return nil
}

// poisson draws from Poisson(lambda) by Knuth's product method, adequate
// for the lambdas used here (tens).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		// Guard against pathological lambda; the series terminates with
		// probability 1 but a bound keeps the simulator total.
		if k > int(lambda*20+1000) {
			return k
		}
	}
}

// lognormalInt draws floor(LogNormal(ln median, sigma)).
func lognormalInt(rng *rand.Rand, median, sigma float64) int {
	x := math.Exp(math.Log(median) + sigma*rng.NormFloat64())
	if x < 0 {
		return 0
	}
	if x > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(x)
}
