// Command fbcluster reproduces the paper's measurement study (§2): it
// generates (or loads) a calibrated failure trace for the warehouse
// cluster and prints the Fig. 3a and Fig. 3b day series, their medians,
// and the §2.2 stripe-failure distribution, under a selectable erasure
// code. It regenerates the Fig. 3a, Fig. 3b, §2.2 split and §3.2
// recovery-time rows of the map in the root package doc (doc.go).
//
// Usage:
//
//	fbcluster [-days N] [-seed S] [-code rs|pbrs|lrc] [-csv] [-save trace.json] [-load trace.json]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/lrc"
	"repro/internal/rs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	days := flag.Int("days", 24, "trace length in days (the paper's Fig. 3b covers 24)")
	seed := flag.Int64("seed", 1, "trace seed")
	codeName := flag.String("code", "rs", "erasure code: rs, pbrs, or lrc")
	csv := flag.Bool("csv", false, "emit the day series as CSV instead of a table")
	save := flag.String("save", "", "write the generated trace to this JSON file")
	load := flag.String("load", "", "load the trace from this JSON file instead of generating")
	flag.Parse()

	if err := run(*days, *seed, *codeName, *csv, *save, *load); err != nil {
		fmt.Fprintln(os.Stderr, "fbcluster:", err)
		os.Exit(1)
	}
}

func pickCode(name string) (ec.Code, error) {
	switch name {
	case "rs":
		return rs.New(10, 4)
	case "pbrs":
		return core.New(10, 4)
	case "lrc":
		return lrc.New(10, 4, 2)
	default:
		return nil, fmt.Errorf("unknown code %q (want rs, pbrs, or lrc)", name)
	}
}

func run(days int, seed int64, codeName string, csv bool, save, load string) error {
	code, err := pickCode(codeName)
	if err != nil {
		return err
	}

	var tr *workload.Trace
	if load != "" {
		f, err := os.Open(load)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err = workload.ReadJSON(f)
		if err != nil {
			return err
		}
	} else {
		cfg := workload.DefaultConfig()
		cfg.Days = days
		cfg.Seed = seed
		tr, err = workload.Generate(cfg)
		if err != nil {
			return err
		}
	}

	if save != "" {
		f, err := os.Create(save)
		if err != nil {
			return err
		}
		if err := tr.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace saved to %s\n", save)
	}

	res, err := sim.NewStudy(code).Run(tr)
	if err != nil {
		return err
	}

	if csv {
		fmt.Println("day,unavailable,triggered,blocks_reconstructed,cross_rack_bytes,recovery_seconds")
		for _, d := range res.Days {
			fmt.Printf("%d,%d,%d,%d,%d,%.1f\n",
				d.Day, d.UnavailableMachines, d.TriggeredEvents,
				d.BlocksReconstructed, d.CrossRackBytes, d.RecoveryTime.Seconds())
		}
		return nil
	}

	fmt.Printf("Warehouse cluster study: %d days, code %s\n\n", len(res.Days), res.CodeName)
	fmt.Printf("%4s  %12s  %8s  %10s  %14s\n", "day", "unavailable", "events", "blocks", "cross-rack")
	for _, d := range res.Days {
		fmt.Printf("%4d  %12d  %8d  %10d  %14s\n",
			d.Day, d.UnavailableMachines, d.TriggeredEvents,
			d.BlocksReconstructed, stats.FormatBytes(d.CrossRackBytes))
	}
	fmt.Println()
	fmt.Printf("Fig. 3a  median machines unavailable/day : %.0f   (paper: >50)\n", res.MedianUnavailable)
	fmt.Printf("Fig. 3b  median blocks reconstructed/day : %.0f   (paper: 95,500)\n", res.MedianBlocksPerDay)
	fmt.Printf("Fig. 3b  median cross-rack traffic/day   : %s   (paper: >180 TB under RS)\n",
		stats.FormatBytes(int64(res.MedianCrossRackBytes)))
	fmt.Printf("         total cross-rack traffic        : %s over %d days\n",
		stats.FormatBytes(res.TotalCrossRackBytes), len(res.Days))
	fmt.Printf("         mean recovery time per block    : %v\n", res.MeanRecoveryTimePerBlock().Round(1000000))

	dist, err := sim.MissingBlockDistribution(sim.DefaultStripeFailureConfig())
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Printf("§2.2     missing blocks per affected stripe (paper: 98.08%% / 1.87%% / 0.05%%):\n")
	fmt.Printf("         1 missing: %.2f%%   2 missing: %.2f%%   >=3 missing: %.2f%%\n",
		100*dist.Fraction(1), 100*dist.Fraction(2), 100*dist.FractionAtLeast(3))

	printUnavailabilityHistogram(res)
	return nil
}

// printUnavailabilityHistogram renders the Fig. 3a distribution as an
// ASCII bar chart: how many days fell into each unavailability band.
func printUnavailabilityHistogram(res *sim.Result) {
	series := make([]float64, len(res.Days))
	hi := 0.0
	for i, d := range res.Days {
		series[i] = float64(d.UnavailableMachines)
		if series[i] > hi {
			hi = series[i]
		}
	}
	const buckets = 8
	h, err := stats.NewHistogram(series, 0, hi+1, buckets)
	if err != nil {
		return
	}
	width := (hi + 1) / buckets
	fmt.Println()
	fmt.Println("Fig. 3a  distribution of machines unavailable per day:")
	maxCount := 0
	for _, c := range h.Buckets {
		if c > maxCount {
			maxCount = c
		}
	}
	for b, c := range h.Buckets {
		bar := ""
		if maxCount > 0 {
			for i := 0; i < c*40/maxCount; i++ {
				bar += "#"
			}
		}
		fmt.Printf("         %4.0f-%4.0f | %-40s %d days\n",
			float64(b)*width, float64(b+1)*width, bar, c)
	}
}
