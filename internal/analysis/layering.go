package analysis

import "strings"

// layering enforces the module's layer architecture:
//
//  1. No upward imports: every internal package has a layer rank, and
//     imports must flow strictly downward (hdfs importing serve, or
//     two same-rank packages importing each other, is a cycle waiting
//     to happen). New internal packages must be added to layerRank —
//     an unranked package is a finding, so the map cannot rot.
//  2. An empty root: the module-root package (repro) sits above every
//     layer and declares nothing in its non-test files — only the
//     package doc, the map from the paper to the code. Callers import
//     the package that does the work, so a facade of forwarders cannot
//     grow back beside it.
type layering struct{}

// Layering returns the layering analyzer.
func Layering() Analyzer { return layering{} }

func (layering) Name() string { return "layering" }

func (layering) Doc() string {
	return "intra-module imports flow strictly down the layer ranks, and the module root declares nothing"
}

// rootPath is the module-root package: its package doc and tests only.
const rootPath = "repro"

// layerRank orders the internal packages bottom-up. An import is legal
// only from a strictly higher rank to a strictly lower one; cmd/*,
// examples/*, and the root package's tests sit above every layer and
// may import anything.
var layerRank = map[string]int{
	"repro/internal/gf256":              0,
	"repro/internal/crc":                0,
	"repro/internal/cluster":            0,
	"repro/internal/workload":           0,
	"repro/internal/stats":              0,
	"repro/internal/regenerating":       0,
	"repro/internal/analysis":           0,
	"repro/internal/telemetry":          0,
	"repro/internal/cache":              0,
	"repro/internal/testutil/leakcheck": 0,
	"repro/internal/matrix":             1,
	"repro/internal/ec":                 1,
	"repro/internal/extent":             1,
	"repro/internal/rs":                 2,
	"repro/internal/layout":             2,
	"repro/internal/reliability":        2,
	"repro/internal/engine":             2,
	"repro/internal/core":               3,
	"repro/internal/lrc":                3,
	"repro/internal/hdfs":               4,
	"repro/internal/repairmgr":          5,
	"repro/internal/sim":                5,
	"repro/internal/serve":              6,
}

func (a layering) Check(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	internal := strings.HasPrefix(pkg.ImportPath, "repro/internal/")
	rank, ranked := layerRank[pkg.ImportPath]
	if internal && !ranked {
		diags = append(diags, diag(pkg, a.Name(), pkg.Files[0].AST.Package,
			"package %s has no layer rank: add it to layerRank in internal/analysis/layering.go", pkg.ImportPath))
	}
	for _, f := range pkg.Files {
		// Test files are exempt from the rank rule: external test
		// packages (foo_test) conventionally pull higher layers in to
		// exercise integration (ec's tests decode with rs/lrc codecs)
		// and never create link-time cycles.
		if internal && ranked && !f.IsTest {
			diags = append(diags, a.checkImports(pkg, f, rank)...)
		}
		if pkg.ImportPath == rootPath && !f.IsTest {
			for _, d := range f.AST.Decls {
				diags = append(diags, diag(pkg, a.Name(), d.Pos(),
					"the module root declares nothing but its package doc: put this in the package that does the work and import that"))
			}
		}
	}
	return diags
}

// checkImports flags imports that do not flow strictly downward.
func (a layering) checkImports(pkg *Package, f *File, rank int) []Diagnostic {
	var diags []Diagnostic
	for _, imp := range f.AST.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if !strings.HasPrefix(p, "repro/") {
			continue
		}
		impRank, ok := layerRank[p]
		if !ok {
			// The imported package's own Check reports its missing rank.
			continue
		}
		if impRank >= rank {
			diags = append(diags, diag(pkg, a.Name(), imp.Pos(),
				"upward import: %s (layer %d) imports %s (layer %d); imports must flow strictly down the layer ranks",
				pkg.ImportPath, rank, p, impRank))
		}
	}
	return diags
}
