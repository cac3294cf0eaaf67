package workload

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
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
	var sizes []float64
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
		sizes = append(sizes, float64(d.Bytes))
	})
	if len(posSeen) != 14 {
		t.Fatalf("stripe positions cover %d values, want all 14", len(posSeen))
	}
	mean := stats.Mean(sizes)
	want := cfg.MeanBlockBytes()
	if math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("empirical mean block size %v, want within 5%% of %v", mean, want)
	}
}

// Generate -> WriteJSON -> ReadJSON is the identity, for several seeds
// and configs: whatever Generate makes, ReadJSON's day checks accept.
func TestJSONRoundTrip(t *testing.T) {
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
			var buf bytes.Buffer
			if err := tr.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := ReadJSON(&buf)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !reflect.DeepEqual(got, tr) {
				t.Fatalf("seed %d, %d machines: trace did not round-trip", seed, cfg.Machines)
			}
		}
	}
}

// A trace whose days contradict its own config is refused: a negative
// or short unavailability count, a non-positive or over-cap block loss,
// a machine outside the cluster, or a day out of order.
func TestReadJSONRejectsContradictoryDays(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Days = 3
	for name, corrupt := range map[string]func(*Trace){
		"negative unavailable":   func(tr *Trace) { tr.Days[0].Unavailable = -4 },
		"fewer unavailable":      func(tr *Trace) { tr.Days[0].Unavailable = len(tr.Days[0].Triggered) - 1 },
		"negative blocks lost":   func(tr *Trace) { tr.Days[0].Triggered[0].BlocksLost = -7 },
		"zero blocks lost":       func(tr *Trace) { tr.Days[0].Triggered[0].BlocksLost = 0 },
		"blocks over the cap":    func(tr *Trace) { tr.Days[0].Triggered[0].BlocksLost = 2_000_000_000 },
		"machine out of range":   func(tr *Trace) { tr.Days[1].Triggered[0].Machine = cfg.Machines },
		"negative machine":       func(tr *Trace) { tr.Days[1].Triggered[0].Machine = -1 },
		"day index out of order": func(tr *Trace) { tr.Days[2].Index = 1 },
	} {
		tr, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Days[0].Triggered) == 0 || len(tr.Days[1].Triggered) == 0 {
			t.Fatal("seed no longer triggers recovery on days 0 and 1")
		}
		corrupt(tr)
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadJSON(&buf); err == nil {
			t.Errorf("%s: trace accepted", name)
		}
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"config":{"days":0},"days":[]}`)); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"config":` + mustConfigJSON(t) + `,"days":[]}`)); err == nil {
		t.Fatal("day count mismatch accepted")
	}
}

func mustConfigJSON(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	cfg := DefaultConfig()
	cfg.Days = 2
	tr := &Trace{Config: cfg, Days: make([]Day, 2)}
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	start := strings.Index(s, `"config": `) + len(`"config": `)
	end := strings.Index(s, `"days"`)
	return strings.TrimSuffix(strings.TrimSpace(s[start:end]), ",")
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

func TestSampleBlocksDeterministicSubset(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Days = 2
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var day *Day
	for i := range tr.Days {
		if tr.Days[i].BlocksLost() > 100 {
			day = &tr.Days[i]
			break
		}
	}
	if day == nil {
		t.Skip("trace has no day with >100 blocks")
	}
	const max = 37
	a := day.SampleBlocks(cfg, 14, max)
	b := day.SampleBlocks(cfg, 14, max)
	if len(a) == 0 || len(a) > max {
		t.Fatalf("sample size %d, want in (0, %d]", len(a), max)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sampling not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Each sampled draw must appear in the full replay with identical
	// size and position (the sampler preserves draws, not re-rolls).
	full := make(map[BlockDraw]int)
	for _, ev := range day.Triggered {
		ev.ReplayBlocks(cfg, 14, func(d BlockDraw) { full[d]++ })
	}
	for i, d := range a {
		if full[d] == 0 {
			t.Fatalf("sampled draw %d (%+v) not in full replay", i, d)
		}
	}
	// Requesting more than available returns everything.
	all := day.SampleBlocks(cfg, 14, day.BlocksLost()+10)
	if len(all) != day.BlocksLost() {
		t.Fatalf("oversized request returned %d of %d", len(all), day.BlocksLost())
	}
	if day.SampleBlocks(cfg, 14, 0) != nil {
		t.Fatal("max=0 must return nil")
	}
}
