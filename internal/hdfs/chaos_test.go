package hdfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestChaos drives a random operation sequence — writes, reads, raids,
// transient failures, decommissions, bit rot, scrubber and fixer passes
// — against a reference model, never exceeding the code's fault
// tolerance, and asserts that no acknowledged byte is ever lost or
// corrupted.
func TestChaos(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaos(t, seed, 250)
		})
	}
}

func runChaos(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	code := pbCode(t) // (4,2): tolerance 2
	c := testCluster(t, code, seed)

	reference := make(map[string][]byte)
	var names []string
	// compromised tracks machines whose data is currently unprotected:
	// transiently failed or decommissioned since the last fixer pass.
	compromised := make(map[int]bool)
	decommissioned := make(map[int]bool)
	nextFile := 0

	checkFile := func(name string) {
		got, err := c.ReadFile(name)
		if err != nil {
			t.Fatalf("seed %d: read %s: %v", seed, name, err)
		}
		if !bytes.Equal(got, reference[name]) {
			t.Fatalf("seed %d: %s corrupted", seed, name)
		}
	}

	runFixer := func() {
		report, err := c.RunBlockFixer()
		if err != nil {
			t.Fatalf("seed %d: fixer: %v", seed, err)
		}
		if len(report.Unrecoverable) > 0 {
			t.Fatalf("seed %d: fixer lost blocks %v with <=2 concurrent failures", seed, report.Unrecoverable)
		}
		// Everything is re-protected; remaining down machines hold no
		// referenced data.
		compromised = make(map[int]bool)
	}

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); op {
		case 0, 1: // write a new file
			name := fmt.Sprintf("f%04d", nextFile)
			nextFile++
			size := 1 + rng.Intn(6*1024)
			data := make([]byte, size)
			rng.Read(data)
			if err := c.WriteFile(name, data); err != nil {
				t.Fatalf("seed %d step %d: write: %v", seed, step, err)
			}
			reference[name] = data
			names = append(names, name)

		case 2, 3: // read and verify a random file
			if len(names) == 0 {
				continue
			}
			checkFile(names[rng.Intn(len(names))])

		case 4: // age the cluster and raid cold files
			c.AdvanceClock(45 * 24 * time.Hour)
			if _, err := c.RunRaidNode(DefaultRaidPolicy()); err != nil {
				t.Fatalf("seed %d step %d: raidnode: %v", seed, step, err)
			}

		case 5: // transient machine failure
			if len(compromised) >= 2 {
				continue
			}
			m := rng.Intn(c.cfg.Topology.Machines())
			if compromised[m] || decommissioned[m] {
				continue
			}
			c.FailMachine(m)
			compromised[m] = true

		case 6: // permanent decommission
			if len(compromised) >= 2 || len(decommissioned) >= 5 {
				continue
			}
			m := rng.Intn(c.cfg.Topology.Machines())
			if compromised[m] || decommissioned[m] {
				continue
			}
			c.DecommissionMachine(m)
			compromised[m] = true
			decommissioned[m] = true

		case 7: // restore all transient failures
			for m := range compromised {
				if !decommissioned[m] {
					c.RestoreMachine(m)
					delete(compromised, m)
				}
			}

		case 8: // bit rot + scrub + fix, only from a fully protected state
			if len(compromised) > 0 || len(names) == 0 {
				continue
			}
			name := names[rng.Intn(len(names))]
			locs, err := c.BlockLocations(name)
			if err != nil || len(locs) == 0 || len(locs[0]) == 0 {
				continue
			}
			blockID := only(t, c).files[name].blocks[0]
			if err := c.InjectBitRot(locs[0][0], blockID, 0); err != nil {
				t.Fatalf("seed %d step %d: rot: %v", seed, step, err)
			}
			if _, err := c.RunScrubber(); err != nil {
				t.Fatalf("seed %d step %d: scrub: %v", seed, step, err)
			}
			runFixer()
			checkFile(name)

		case 9: // fixer pass
			runFixer()
		}
	}

	// Quiesce: restore transients, fix everything, verify every byte.
	for m := range compromised {
		if !decommissioned[m] {
			c.RestoreMachine(m)
		}
	}
	runFixer()
	for _, name := range names {
		checkFile(name)
	}
	if _, err := c.RunScrubber(); err != nil {
		t.Fatal(err)
	}
	// A final fixer pass must find nothing to do.
	report, err := c.RunBlockFixer()
	if err != nil {
		t.Fatal(err)
	}
	if report.RepairedStriped != 0 || report.ReReplicated != 0 || len(report.Unrecoverable) != 0 {
		t.Fatalf("seed %d: quiesced cluster still dirty: %+v", seed, report)
	}
}
