package analysis

import (
	"path/filepath"
	"strings"
)

// linkName keeps the module's unsafe surface to one symbol: a
// //go:linkname reaches past the Go API into another package's
// internals, with no compiler check of the signature it declares. The
// one allowed is internal/serve's uninitBytes helper, in its own file,
// pulling runtime.mallocgc (which the runtime keeps open to linkname
// and promises not to change). Every //go:linkname in any other file,
// tests included, and every target other than runtime.mallocgc in that
// file, is a finding.
type linkName struct{}

// LinkName returns the linkname analyzer.
func LinkName() Analyzer { return linkName{} }

func (linkName) Name() string { return "linkname" }

func (linkName) Doc() string {
	return "the only //go:linkname is internal/serve/uninit.go's pull of runtime.mallocgc"
}

// The one allowed linkname: its package, file and target.
const (
	linknamePkg    = "repro/internal/serve"
	linknameFile   = "uninit.go"
	linknameTarget = "runtime.mallocgc"
)

func (a linkName) Check(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		home := pkg.ImportPath == linknamePkg && filepath.Base(f.Name) == linknameFile
		for _, cg := range f.AST.Comments {
			for _, c := range cg.List {
				args, ok := strings.CutPrefix(c.Text, "//go:linkname ")
				if !ok {
					continue
				}
				args, _, _ = strings.Cut(args, "//")
				fields := strings.Fields(args)
				target := "" // the one-argument form pushes a symbol out
				if len(fields) >= 2 {
					target = fields[1]
				}
				switch {
				case !home:
					diags = append(diags, diag(pkg, a.Name(), c.Pos(),
						"//go:linkname outside %s/%s: the module's one linkname lives there", linknamePkg, linknameFile))
				case target != linknameTarget:
					diags = append(diags, diag(pkg, a.Name(), c.Pos(),
						"//go:linkname target %q: the only one allowed is %s", target, linknameTarget))
				}
			}
		}
	}
	return diags
}
