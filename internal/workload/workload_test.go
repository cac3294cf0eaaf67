package workload

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Days = 0 },
		func(c *Config) { c.Machines = 0 },
		func(c *Config) { c.BaseEventsPerDay = -1 },
		func(c *Config) { c.IncidentProb = 1.5 },
		func(c *Config) { c.IncidentMax = c.IncidentMin - 1 },
		func(c *Config) { c.TriggerProb = -0.1 },
		func(c *Config) { c.IncidentTriggerProb = 1.1 },
		func(c *Config) { c.BlocksPerTriggerMedian = 0 },
		func(c *Config) { c.BlocksPerTriggerSigma = -1 },
		func(c *Config) { c.MaxBlocksPerMachine = 0 },
		func(c *Config) { c.BlockBytes = 0 },
		func(c *Config) { c.BlockBytes = 255 },
		func(c *Config) { c.FullBlockProb = 2 },
		func(c *Config) { c.MinBlockBytes = 0 },
		func(c *Config) { c.MinBlockBytes = c.BlockBytes + 1 },
	}
	for i, mut := range mutations {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config accepted", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Days) != len(b.Days) {
		t.Fatal("different lengths")
	}
	for i := range a.Days {
		if a.Days[i].Unavailable != b.Days[i].Unavailable {
			t.Fatalf("day %d: unavailable differs", i)
		}
		if len(a.Days[i].Triggered) != len(b.Days[i].Triggered) {
			t.Fatalf("day %d: triggered differs", i)
		}
		for j := range a.Days[i].Triggered {
			if a.Days[i].Triggered[j] != b.Days[i].Triggered[j] {
				t.Fatalf("day %d event %d differs", i, j)
			}
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	cfg := DefaultConfig()
	a, _ := Generate(cfg)
	cfg.Seed = 2
	b, _ := Generate(cfg)
	same := true
	for i := range a.Days {
		if a.Days[i].Unavailable != b.Days[i].Unavailable {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical unavailability series")
	}
}

func TestFig3aCalibration(t *testing.T) {
	// Fig. 3a: median > 50 unavailability events/day, max spikes into
	// the hundreds. Use a long trace so medians are stable.
	cfg := DefaultConfig()
	cfg.Days = 365
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series := stats.IntsToFloats(tr.UnavailableSeries())
	med := stats.Median(series)
	if med < 50 || med > 80 {
		t.Fatalf("median unavailability %v, want in [50, 80] (paper: >50)", med)
	}
	if stats.Max(series) < 100 {
		t.Fatalf("max unavailability %v: incident spikes missing (paper shows ~350)", stats.Max(series))
	}
}

func TestFig3bBlockCalibration(t *testing.T) {
	// Fig. 3b: ~95,500 blocks reconstructed per day at the median.
	cfg := DefaultConfig()
	cfg.Days = 365
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series := make([]float64, len(tr.Days))
	for i := range tr.Days {
		series[i] = float64(tr.Days[i].BlocksLost())
	}
	med := stats.Median(series)
	if med < 60000 || med > 130000 {
		t.Fatalf("median blocks/day %v, want near 95,500", med)
	}
}

func TestMeanBlockBytesCalibration(t *testing.T) {
	// 180 TB/day over 95,500 blocks x 10 downloads pins the mean block
	// near 198 MB.
	mean := DefaultConfig().MeanBlockBytes()
	if mean < 190e6 || mean > 225e6 {
		t.Fatalf("mean block bytes %v outside the calibrated band", mean)
	}
}

func TestReplayBlocksDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	ev := TriggeredEvent{Machine: 7, BlocksLost: 100, SizeSeed: 42}
	var a, b []BlockDraw
	ev.ReplayBlocks(cfg, 14, func(d BlockDraw) { a = append(a, d) })
	ev.ReplayBlocks(cfg, 14, func(d BlockDraw) { b = append(b, d) })
	if len(a) != 100 || len(b) != 100 {
		t.Fatalf("replay produced %d/%d draws, want 100", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between replays", i)
		}
	}
}

func TestReplayBlocksProperties(t *testing.T) {
	cfg := DefaultConfig()
	ev := TriggeredEvent{BlocksLost: 5000, SizeSeed: 99}
	posSeen := make(map[int]int)
	var sum, n float64
	ev.ReplayBlocks(cfg, 14, func(d BlockDraw) {
		if d.Bytes%2 != 0 {
			t.Fatalf("odd block size %d", d.Bytes)
		}
		if d.Bytes < cfg.MinBlockBytes-1 || d.Bytes > cfg.BlockBytes {
			t.Fatalf("block size %d outside [%d, %d]", d.Bytes, cfg.MinBlockBytes, cfg.BlockBytes)
		}
		if d.StripePos < 0 || d.StripePos >= 14 {
			t.Fatalf("stripe position %d outside [0, 14)", d.StripePos)
		}
		posSeen[d.StripePos]++
		sum += float64(d.Bytes)
		n++
	})
	if len(posSeen) != 14 {
		t.Fatalf("stripe positions cover %d values, want all 14", len(posSeen))
	}
	mean := sum / n
	want := cfg.MeanBlockBytes()
	if math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("empirical mean block size %v, want within 5%% of %v", mean, want)
	}
}

// Whatever Generate makes, for several seeds and configs, keeps the
// per-day invariants the study relies on: days in order, at least as
// many unavailable machines as triggered events, and every event on a
// real machine losing between 1 and MaxBlocksPerMachine blocks.
func TestGenerateKeepsDayInvariants(t *testing.T) {
	small := DefaultConfig()
	small.Machines = 40
	small.MaxBlocksPerMachine = 500
	small.IncidentProb = 0.5
	for _, base := range []Config{DefaultConfig(), small} {
		for _, seed := range []int64{1, 2, 99} {
			cfg := base
			cfg.Seed = seed
			cfg.Days = 5
			tr, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Config != cfg || len(tr.Days) != cfg.Days {
				t.Fatalf("seed %d: trace has %d days under config %+v", seed, len(tr.Days), tr.Config)
			}
			for i, d := range tr.Days {
				if d.Index != i {
					t.Fatalf("seed %d: day %d has index %d", seed, i, d.Index)
				}
				if d.Unavailable < len(d.Triggered) {
					t.Fatalf("seed %d: day %d has %d unavailable machines but %d triggered events", seed, i, d.Unavailable, len(d.Triggered))
				}
				for _, e := range d.Triggered {
					if e.Machine < 0 || e.Machine >= cfg.Machines {
						t.Fatalf("seed %d: day %d: machine %d outside [0, %d)", seed, i, e.Machine, cfg.Machines)
					}
					if e.BlocksLost < 1 || e.BlocksLost > cfg.MaxBlocksPerMachine {
						t.Fatalf("seed %d: day %d: machine %d lost %d blocks, want 1..%d", seed, i, e.Machine, e.BlocksLost, cfg.MaxBlocksPerMachine)
					}
				}
			}
		}
	}
}

func TestTriggeredFractionMatchesProbability(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Days = 200
	cfg.IncidentProb = 0 // isolate the base-event trigger probability
	tr, _ := Generate(cfg)
	events, triggered := 0, 0
	for _, d := range tr.Days {
		events += d.Unavailable
		triggered += len(d.Triggered)
	}
	frac := float64(triggered) / float64(events)
	if math.Abs(frac-cfg.TriggerProb) > 0.05 {
		t.Fatalf("triggered fraction %v, want near %v", frac, cfg.TriggerProb)
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := newTestRand(7)
	const lambda = 52.0
	const n = 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := float64(poisson(rng, lambda))
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-lambda) > 1 {
		t.Fatalf("poisson mean %v, want ~%v", mean, lambda)
	}
	if math.Abs(variance-lambda)/lambda > 0.1 {
		t.Fatalf("poisson variance %v, want ~%v", variance, lambda)
	}
	if poisson(rng, 0) != 0 || poisson(rng, -3) != 0 {
		t.Fatal("non-positive lambda must yield 0")
	}
}

func TestLognormalMedian(t *testing.T) {
	rng := newTestRand(8)
	const median, sigma = 5000.0, 0.6
	const n = 20000
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = float64(lognormalInt(rng, median, sigma))
	}
	med := stats.Median(samples)
	if math.Abs(med-median)/median > 0.05 {
		t.Fatalf("lognormal median %v, want within 5%% of %v", med, median)
	}
}
