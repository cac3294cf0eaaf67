// Command repolint runs the project-invariant static analysis suite
// (internal/analysis) over the module and exits non-zero on any
// finding. It is the machine check for the conventions the codebase
// runs on: metadata-lock discipline, interface-only layering, injected
// clocks, wire-path error handling, allocation-free kernels, no
// exported code that only its own package's tests call, and one
// //go:linkname in the module. It is
// tooling and regenerates no row of the map in the root package doc
// (doc.go).
//
// Usage:
//
//	repolint [-root dir] [-expect-all] [-list]
//
// -root selects the module root to analyze (default "."). -list
// prints the analyzers and exits. -expect-all inverts the gate for
// fixture trees: the run succeeds only if EVERY analyzer produced at
// least one finding — CI runs it against the deliberately broken tree
// under internal/analysis/testdata/fixture, so an analyzer that
// silently stops matching after a refactor fails the build.
//
// Findings print as file:line:col: [analyzer] message. A finding is
// suppressed in place with
//
//	//repolint:ignore <analyzer> <reason>
//
// on the flagged line or the line above; the reason is mandatory, and
// stale suppressions (matching nothing) are themselves findings.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "module root to analyze")
	expectAll := fs.Bool("expect-all", false, "fixture mode: succeed only if every analyzer fired at least once")
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name(), a.Doc())
		}
		return 0
	}

	diags, err := Run(*root, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "repolint:", err)
		return 2
	}

	if *expectAll {
		fired := map[string]int{}
		for _, d := range diags {
			fired[d.Analyzer]++
		}
		silent := 0
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-16s %d finding(s)\n", a.Name(), fired[a.Name()])
			if fired[a.Name()] == 0 {
				fmt.Fprintf(stderr, "repolint: analyzer %s matched NOTHING in the fixture tree — it has gone silent\n", a.Name())
				silent++
			}
		}
		if silent > 0 {
			return 1
		}
		return 0
	}

	for _, d := range diags {
		fmt.Fprintln(stdout, d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "repolint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// Run loads the module at root, runs every analyzer, applies
// //repolint:ignore suppressions, and returns the surviving
// diagnostics sorted by position. Exported for the fixture self-test.
func Run(root string, analyzers []analysis.Analyzer) ([]analysis.Diagnostic, error) {
	pkgs, err := analysis.LoadModule(root)
	if err != nil {
		return nil, err
	}
	var all []analysis.Diagnostic
	for _, pkg := range pkgs {
		var diags []analysis.Diagnostic
		for _, a := range analyzers {
			diags = append(diags, a.Check(pkg)...)
		}
		sups, probs := analysis.CollectSuppressions(pkg, analyzers)
		diags = analysis.ApplySuppressions(diags, sups)
		diags = append(diags, probs...)
		diags = append(diags, analysis.StaleSuppressions(sups)...)
		all = append(all, diags...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].Pos, all[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return all[i].Analyzer < all[j].Analyzer
	})
	return all, nil
}
