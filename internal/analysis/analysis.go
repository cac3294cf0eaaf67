// Package analysis is repolint's project-invariant static analysis
// suite: a set of small, zero-dependency analyzers (stdlib go/ast +
// go/parser only) that machine-check the concurrency, layering, and
// protocol conventions this codebase runs on, instead of leaving them
// to comments and reviewer memory.
//
// The analyzers:
//
//   - lockdiscipline — inside internal/hdfs, every acquisition of the
//     metadata mutex (Cluster.mu) goes through the instrumented
//     lockMeta/rlockMeta helpers, and no engine/codec decode or encode
//     call and no replica store runs while the metadata lock is held
//     (the phased rule: plan under the lock, decode, encode and store
//     with it released, commit under the lock), counting a *Locked
//     method as entered with the lock held.
//   - layering — the intra-module import graph respects the layer
//     ranks (no upward imports), and the module root (repro) declares
//     nothing but its package doc.
//   - clockinject — internal/repairmgr never reads the wall clock
//     directly; timestamps flow through the injected Clock so
//     failure-detector timelines stay table-testable. The one
//     exception is the documented default in withDefaults.
//   - framecheck — on the serve wire path, every ReadFull/Write/
//     Marshal/Unmarshal result is checked, and any []byte allocation
//     sized by a wire-decoded length is dominated by a bounds check.
//   - noalloc — the gf256 fused kernels, the crc package and the
//     engine's per-job fold loops stay allocation-free: no append,
//     make, new, map literal, or closure inside them.
//   - deadexport — every exported func, var, const and method under
//     internal/ has a caller outside its own package's tests: a
//     program, the benchmark, the root package's paper-figure tests, or
//     its own package's code. Test-only code is deleted, moved into a
//     _test.go file as an oracle, or kept for a named ROADMAP item.
//   - linkname — the module's one //go:linkname is internal/serve's
//     uninit.go pulling runtime.mallocgc (ReadFile's unzeroed result):
//     one in any other file, or to any other target, is a finding.
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
// (deadexport's cross-package reference index is built once per run)
// and works on any tree that parses — including the deliberately
// broken fixture under testdata/fixture that CI uses to prove every
// analyzer still fires.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
	"sync"
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
	// invariants (clock injection, wire-path error handling, import
	// ranks) skip test files.
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
	// Module is the module the package was loaded with, for rules that
	// span packages; nil for a package parsed on its own.
	Module *Module
}

// Module is every package LoadModule parsed under one go.mod.
type Module struct {
	// Path is the module path (e.g. repro).
	Path string
	// Packages are the module's packages, sorted by import path.
	Packages []*Package

	refsOnce sync.Once
	refs     *refIndex
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
		DeadExport(),
		LinkName(),
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
