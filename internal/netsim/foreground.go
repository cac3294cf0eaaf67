package netsim

import (
	"errors"
	"math/rand"
)

// ForegroundConfig parameterises the foreground map-reduce load that
// recovery traffic competes with (§2.2: recovery "renders the bandwidth
// unavailable for the foreground map-reduce jobs" — here the contention
// runs both ways).
//
// The injector is closed-loop: Workers persistent shuffle clients each
// run back-to-back cross-rack flows, so offered load adapts to the
// fabric instead of queueing unboundedly. Workers sized near the
// aggregation capacity divided by the NIC rate saturates the core.
type ForegroundConfig struct {
	// Workers is the number of concurrent shuffle clients.
	Workers int
	// MeanBytes is the mean flow size; sizes are drawn exponential.
	MeanBytes float64
	// Until stops launching new flows at this simulated time (flows in
	// flight drain naturally).
	Until float64
	// Seed drives endpoint and size randomness.
	Seed int64
}

// InjectForeground installs the foreground load on the simulator. Each
// worker picks a random cross-rack (src, dst) pair and size per flow,
// launching its next flow the moment the previous one completes, until
// cfg.Until. Flows run in ClassBulk: foreground and background repairs
// fair-share links, which is the fluid model of competing TCP streams.
func InjectForeground(sim *Simulator, cfg ForegroundConfig) error {
	if cfg.Workers <= 0 {
		return errors.New("netsim: foreground Workers must be positive")
	}
	if cfg.MeanBytes <= 0 {
		return errors.New("netsim: foreground MeanBytes must be positive")
	}
	t := sim.Topology()
	if t.Racks < 2 {
		return errors.New("netsim: foreground load needs at least 2 racks")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var launch func(worker int)
	launch = func(worker int) {
		if sim.Now() >= cfg.Until {
			return
		}
		src := rng.Intn(t.Machines())
		// Cross-rack destination: shuffle output lands off-rack.
		dst := rng.Intn(t.Machines())
		for t.RackOf(dst) == t.RackOf(src) {
			dst = rng.Intn(t.Machines())
		}
		bytes := int64(rng.ExpFloat64() * cfg.MeanBytes)
		if bytes < 1 {
			bytes = 1
		}
		if _, err := sim.StartFlow(src, dst, bytes, ClassBulk, func(float64) {
			launch(worker)
		}); err != nil {
			// Endpoints are in range by construction; nothing to do.
			return
		}
	}
	// Stagger worker start times a little so the first recompute does
	// not see one synchronized burst.
	for w := 0; w < cfg.Workers; w++ {
		start := float64(w) * 1e-3
		sim.At(start, func() { launch(w) })
	}
	return nil
}
