// Package analysis is repolint's project-invariant static analysis
// suite: a set of small, zero-dependency analyzers (stdlib go/ast +
// go/parser only) that machine-check the concurrency, layering, and
// protocol conventions this codebase runs on, instead of leaving them
// to comments and reviewer memory.
//
// The analyzers:
//
//   - lockdiscipline — inside internal/hdfs, every acquisition of a
//     metadata shard's mutex (metaShard.mu) goes through the
//     instrumented lockMeta/rlockMeta helpers, only metaShard methods
//     call them, and no engine/codec decode call runs while the
//     metadata lock is held (the phased-fixer rule: plan under the
//     lock, decode with it released, apply under the lock).
//   - layering — packages serve, sim, repairmgr, and engine consume
//     the Metadata interface family, never *hdfs.Cluster concretely;
//     and the intra-module import graph must respect the layer ranks
//     (no upward imports).
//   - clockinject — internal/repairmgr never reads the wall clock
//     directly; timestamps flow through the injected Clock so
//     failure-detector timelines stay table-testable. The one
//     exception is the documented default in withDefaults.
//   - framecheck — on the serve wire path, every ReadFull/Write/
//     Marshal/Unmarshal result is checked, and any []byte allocation
//     sized by a wire-decoded length is dominated by a bounds check.
//   - noalloc — the gf256 fused kernels and the engine's per-job fold
//     loops stay allocation-free: no append, make, new, map literal,
//     or closure inside them.
//
// A finding is suppressed in place with
//
//	//repolint:ignore <analyzer> <reason>
//
// on the flagged line or the line above it. The reason is mandatory;
// a reason-less or unknown-analyzer suppression is itself a
// diagnostic, as is a suppression that no longer matches anything.
//
// Each analyzer is purely syntactic: it parses the tree (no type
// checking, no build), so the whole suite runs in well under a second
// and works on any tree that parses — including the deliberately
// broken fixture under testdata/fixture that CI uses to prove every
// analyzer still fires.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Diagnostic is one finding: a position, the analyzer that produced
// it, and a human-readable message. The driver prints it as
// file:line:col: [analyzer] message.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// File is one parsed source file.
type File struct {
	// Name is the file path as given to the parser.
	Name string
	// AST is the parsed file, with comments.
	AST *ast.File
	// IsTest reports a _test.go file. Analyzers that check production
	// invariants (clock injection, wire-path error handling) skip test
	// files; layering checks them too, since tests are consumers.
	IsTest bool
}

// Package is one directory's worth of parsed files. No type
// information is attached; analyzers are syntactic.
type Package struct {
	// ImportPath is the package's module-qualified import path
	// (e.g. repro/internal/hdfs).
	ImportPath string
	// Dir is the directory the files were parsed from.
	Dir string
	// Fset positions every AST node in Files.
	Fset *token.FileSet
	// Files are the parsed sources, tests included.
	Files []*File
}

// Analyzer is one project-invariant check.
type Analyzer interface {
	// Name is the analyzer's identifier, as used in diagnostics and
	// //repolint:ignore directives.
	Name() string
	// Doc is a one-line description of the enforced invariant.
	Doc() string
	// Check analyzes one package and returns its findings.
	Check(pkg *Package) []Diagnostic
}

// All returns every registered analyzer, in reporting order. The
// driver's -expect-all mode requires each of these to fire at least
// once on the broken fixture tree.
func All() []Analyzer {
	return []Analyzer{
		LockDiscipline(),
		Layering(),
		ClockInject(),
		FrameCheck(),
		NoAlloc(),
	}
}

// selectorPath renders a selector chain rooted at an identifier as
// "a.b.c". It returns "" for expressions that are not plain
// identifier-rooted selector chains (calls, indexes, ...).
func selectorPath(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := selectorPath(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	}
	return ""
}

// calleePath renders a call's function as a selector path ("" when the
// callee is not an identifier-rooted selector chain).
func calleePath(call *ast.CallExpr) string {
	return selectorPath(call.Fun)
}

// calleeName returns the last component of the callee (the method or
// function name), or "" when unavailable.
func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// recvInfo extracts a method's receiver name and bare type name
// ("Cluster" for both Cluster and *Cluster receivers). Functions
// without a receiver return "", "".
func recvInfo(fd *ast.FuncDecl) (name, typeName string) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return "", ""
	}
	f := fd.Recv.List[0]
	if len(f.Names) > 0 {
		name = f.Names[0].Name
	}
	t := f.Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		typeName = id.Name
	}
	return name, typeName
}

// importLocalName returns the name an import path is referenced by in
// the file: the explicit alias when present, the path's last element
// otherwise. ok is false when the file does not import path.
func importLocalName(f *ast.File, path string) (string, bool) {
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name, true
		}
		if i := strings.LastIndex(p, "/"); i >= 0 {
			return p[i+1:], true
		}
		return p, true
	}
	return "", false
}

// diag builds a Diagnostic for a node.
func diag(pkg *Package, analyzer string, pos token.Pos, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos:      pkg.Fset.Position(pos),
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	}
}
