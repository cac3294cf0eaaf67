// Command mttdl sweeps the §3.2 reliability model: mean time to data
// loss for 3-way replication, (10,4) RS, (10,4) Piggybacked-RS, and
// (10,4,2) LRC, across node failure rates and recovery bandwidths. The
// sweep shows where each scheme's reliability comes from — and that the
// piggybacked code's faster repairs translate into a constant MTTDL
// multiplier over RS at every operating point. It regenerates the §3.2
// MTTDL row of the map in the root package doc (doc.go).
//
// Usage:
//
//	mttdl [-block BYTES] [-sweep failure|bandwidth]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/lrc"
	"repro/internal/reliability"
	"repro/internal/rs"
	"repro/internal/stats"
)

func main() {
	block := flag.Int64("block", 256<<20, "block size in bytes")
	sweep := flag.String("sweep", "failure", "sweep dimension: failure or bandwidth")
	flag.Parse()

	if err := run(*block, *sweep); err != nil {
		fmt.Fprintln(os.Stderr, "mttdl:", err)
		os.Exit(1)
	}
}

func systems(block int64) ([]reliability.System, error) {
	rep3, err := reliability.ReplicationSystem(3, float64(block))
	if err != nil {
		return nil, err
	}
	out := []reliability.System{rep3}
	rsc, err := rs.New(10, 4)
	if err != nil {
		return nil, err
	}
	pb, err := core.New(10, 4)
	if err != nil {
		return nil, err
	}
	lc, err := lrc.New(10, 4, 2)
	if err != nil {
		return nil, err
	}
	for _, c := range []ec.Code{rsc, pb, lc} {
		sys, err := reliability.CodeSystem(c, float64(block))
		if err != nil {
			return nil, err
		}
		out = append(out, sys)
	}
	return out, nil
}

func run(block int64, sweep string) error {
	systems, err := systems(block)
	if err != nil {
		return err
	}
	base := reliability.DefaultParams()

	fmt.Printf("MTTDL (years/stripe), block %s — §3.2 reliability model\n\n",
		stats.FormatBytes(block))
	header := fmt.Sprintf("%-26s", "parameter")
	for _, sys := range systems {
		header += fmt.Sprintf(" %20s", sys.Name)
	}
	fmt.Println(header)

	switch sweep {
	case "failure":
		// Mean time between recovery-triggering failures per node, from
		// one month to two years.
		for _, months := range []float64{1, 3, 6, 12, 24} {
			p := base
			p.NodeFailuresPerHour = 1 / (months * 30 * 24)
			row := fmt.Sprintf("%-26s", fmt.Sprintf("MTBF %.0f months", months))
			for _, sys := range systems {
				years, err := reliability.MTTDLYears(sys, p)
				if err != nil {
					return err
				}
				row += fmt.Sprintf(" %20.3g", years)
			}
			fmt.Println(row)
		}
	case "bandwidth":
		for _, mbps := range []float64{5, 10, 25, 50, 100, 200} {
			p := base
			p.RepairBytesPerHour = mbps * 1e6 * 3600
			row := fmt.Sprintf("%-26s", fmt.Sprintf("repair %.0f MB/s", mbps))
			for _, sys := range systems {
				years, err := reliability.MTTDLYears(sys, p)
				if err != nil {
					return err
				}
				row += fmt.Sprintf(" %20.3g", years)
			}
			fmt.Println(row)
		}
	default:
		return fmt.Errorf("unknown sweep %q (want failure or bandwidth)", sweep)
	}

	fmt.Println("\nReading the table: Piggybacked-RS holds a constant multiplier over RS at")
	fmt.Println("every point (its repairs always move ~24% fewer bytes); both erasure codes")
	fmt.Println("dominate 3-way replication per stripe while storing half as much.")
	return nil
}
