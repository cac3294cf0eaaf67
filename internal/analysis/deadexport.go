package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// deadExport finds exported code under internal/ that only its own
// package's tests call. Such a name serves neither a row of the paper
// map (doc.go) nor the live system: it is a test fixture living in
// production code, and it is how orphans pile up after their last
// caller is deleted.
//
// A finding is an exported package-level func, var or const, or an
// exported method, declared in a non-test file under internal/ (but not
// internal/testutil/), that nothing references from a counting file:
// a non-test file anywhere in the module (the declaring package
// included), or a test file of the module root, whose benchmarks and
// paper-figure tests are the map's Benchmark column. Types are out of
// scope: a type returned by a live function is used without being
// named.
//
// Methods are matched by name, since the rule is syntactic: any
// selector x.Name in a counting file keeps every method called Name
// alive, as does an interface method of that name declared in one, or
// a method the standard library calls through its own interfaces.
//
// An exported field of an exported struct is a finding when no counting
// file writes it: a knob only tests set, or one read but set nowhere,
// has one value in the system. A write is a composite-literal key, an
// assignment or inc/dec of x.Name, or taking &x.Name, and fields too
// are matched by name. A tagged field is spared: a decoder reaches it
// by reflection. A positional literal names no field, so it writes none
// the rule can see; key it.
//
// Each finding is resolved one of three ways, in this order: delete it
// with the tests whose only subject it is; move a test oracle into a
// _test.go file of its package (an oracle or test fault other
// packages' tests share stays, its reason naming them: "oracle for
// <test>", "test fault for <test>"); or keep a name an open ROADMAP
// item names, citing the item (cmd/repolint's tests check that
// ROADMAP.md lists it as open):
//
//	//repolint:ignore deadexport ROADMAP 7: the workload that calls it
//
// A kept name's directive goes stale, and so fails the run, the day a
// real caller lands.
type deadExport struct{}

// DeadExport returns the deadexport analyzer.
func DeadExport() Analyzer { return deadExport{} }

func (deadExport) Name() string { return "deadexport" }

func (deadExport) Doc() string {
	return "every exported func, var, const and method under internal/ has a caller, and every exported struct field a writer, outside its package's tests"
}

// stdlibMethods are method names the standard library calls through
// its own interfaces (fmt.Stringer, error, json.Marshaler, io.Reader,
// sort.Interface, http.Handler...), so no selector in the module need
// name them.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"Read": true, "Write": true, "Close": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"ServeHTTP": true,
}

func (a deadExport) Check(pkg *Package) []Diagnostic {
	m := pkg.Module
	if m == nil || !strings.HasPrefix(pkg.ImportPath, m.Path+"/internal/") ||
		strings.HasPrefix(pkg.ImportPath, m.Path+"/internal/testutil") {
		return nil
	}
	refs := m.references()
	used := refs.names[pkg.ImportPath]
	var diags []Diagnostic
	report := func(id *ast.Ident, kind string) {
		diags = append(diags, diag(pkg, a.Name(), id.Pos(),
			"exported %s %s has no caller outside its package's tests: delete it, move it into a _test.go file, or keep it for a ROADMAP item", kind, id.Name))
	}
	for _, f := range pkg.Files {
		if f.IsTest {
			continue
		}
		for _, decl := range f.AST.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				switch {
				case !ast.IsExported(name):
				case d.Recv == nil && !used[name]:
					report(d.Name, "func")
				case d.Recv != nil && !refs.methods[name] && !stdlibMethods[name]:
					report(d.Name, "method")
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if ast.IsExported(id.Name) && !used[id.Name] {
								report(id, d.Tok.String())
							}
						}
					case *ast.TypeSpec:
						if st, ok := s.Type.(*ast.StructType); ok && ast.IsExported(s.Name.Name) {
							for _, id := range unwrittenFields(st, refs.written) {
								diags = append(diags, diag(pkg, a.Name(), id.Pos(),
									"exported field %s.%s is set nowhere outside its package's tests: delete it, or keep it for a ROADMAP item", s.Name.Name, id.Name))
							}
						}
					}
				}
			}
		}
	}
	return diags
}

// unwrittenFields returns the struct's exported, untagged field names
// that no counting file writes.
func unwrittenFields(st *ast.StructType, written map[string]bool) []*ast.Ident {
	var out []*ast.Ident
	for _, fld := range st.Fields.List {
		if fld.Tag != nil {
			continue
		}
		for _, id := range fld.Names {
			if ast.IsExported(id.Name) && !written[id.Name] {
				out = append(out, id)
			}
		}
	}
	return out
}

// refIndex is every reference the module's counting files make.
type refIndex struct {
	// names[importPath] holds the package-level names of that package
	// referenced from its own non-test files or, qualified, from any
	// other counting file.
	names map[string]map[string]bool
	// methods holds every selector name and interface method name.
	methods map[string]bool
	// written holds every field name a composite-literal key, an
	// assignment, an inc/dec or an address-of writes.
	written map[string]bool
}

// references builds the module's reference index on first use: one
// walk of every counting file, shared by every package's Check.
func (m *Module) references() *refIndex {
	m.refsOnce.Do(func() {
		m.refs = &refIndex{names: map[string]map[string]bool{}, methods: map[string]bool{}, written: map[string]bool{}}
		for _, pkg := range m.Packages {
			for _, f := range pkg.Files {
				if !f.IsTest || pkg.ImportPath == m.Path {
					m.refs.add(m.Path, pkg.ImportPath, f.AST)
				}
			}
		}
	})
	return m.refs
}

// add records the references one file makes. Identifiers in
// declaring position (func, field, parameter and value-spec names) are
// not references.
func (r *refIndex) add(modPath, importPath string, f *ast.File) {
	imports := map[string]string{} // local name -> module import path
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p == modPath || strings.HasPrefix(p, modPath+"/") {
			if local, ok := importLocalName(f, p); ok {
				imports[local] = p
			}
		}
	}
	use := func(path, name string) {
		if r.names[path] == nil {
			r.names[path] = map[string]bool{}
		}
		r.names[path][name] = true
	}
	write := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			r.written[sel.Sel.Name] = true
		}
	}
	var visit func(n ast.Node) bool
	walk := func(n ast.Node) { ast.Inspect(n, visit) }
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.KeyValueExpr:
			if id, ok := x.Key.(*ast.Ident); ok {
				r.written[id.Name] = true
			}
		case *ast.AssignStmt:
			for _, e := range x.Lhs {
				write(e)
			}
		case *ast.IncDecStmt:
			write(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				write(x.X)
			}
		case *ast.Ident:
			use(importPath, x.Name)
		case *ast.SelectorExpr:
			r.methods[x.Sel.Name] = true
			if base, ok := x.X.(*ast.Ident); ok {
				if p, ok := imports[base.Name]; ok {
					use(p, x.Sel.Name)
					return false
				}
			}
			walk(x.X)
			return false
		case *ast.ImportSpec:
			return false
		case *ast.FuncDecl:
			if x.Recv != nil {
				walk(x.Recv)
			}
			walk(x.Type)
			if x.Body != nil {
				walk(x.Body)
			}
			return false
		case *ast.InterfaceType:
			for _, fld := range x.Methods.List {
				for _, id := range fld.Names {
					r.methods[id.Name] = true
				}
			}
		case *ast.Field:
			walk(x.Type)
			return false
		case *ast.ValueSpec:
			if x.Type != nil {
				walk(x.Type)
			}
			for _, v := range x.Values {
				walk(v)
			}
			return false
		}
		return true
	}
	for _, d := range f.Decls {
		walk(d)
	}
}
