package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"repro/internal/analysis"
)

// docRow is one row of doc.go's map, its continuation lines joined in.
type docRow struct {
	quantity   string
	printedBy  []string
	benchmarks []string
}

// docRows parses the table under doc.go's "The paper's quantities".
// Its columns are found from the header line, counted in runes (the
// quantity column holds "§").
func docRows(t *testing.T) []docRow {
	t.Helper()
	src, err := os.ReadFile("doc.go")
	if err != nil {
		t.Fatal(err)
	}
	fields := func(s string) []string {
		return strings.FieldsFunc(s, func(c rune) bool { return c == ',' || unicode.IsSpace(c) })
	}
	var rows []docRow
	printCol := -1
	benchCol := -1
	for _, line := range strings.Split(string(src), "\n") {
		text, ok := strings.CutPrefix(line, "//\t")
		if !ok {
			if printCol >= 0 {
				break
			}
			continue
		}
		if printCol < 0 {
			p, b := strings.Index(text, "Printed by"), strings.Index(text, "Benchmark")
			if p < 0 || b < p {
				t.Fatalf("doc.go: table header %q lacks the Printed by and Benchmark columns", text)
			}
			printCol, benchCol = utf8.RuneCountInString(text[:p]), utf8.RuneCountInString(text[:b])
			continue
		}
		r := []rune(text)
		cell := func(from, to int) string {
			from, to = min(from, len(r)), min(to, len(r))
			return string(r[from:to])
		}
		if r[0] != ' ' {
			rows = append(rows, docRow{quantity: strings.Join(strings.Fields(text)[:2], " ")})
		} else if len(rows) == 0 {
			t.Fatalf("doc.go: table starts with a continuation line %q", text)
		}
		row := &rows[len(rows)-1]
		row.printedBy = append(row.printedBy, fields(cell(printCol, benchCol))...)
		row.benchmarks = append(row.benchmarks, fields(cell(benchCol, len(r)))...)
	}
	if len(rows) == 0 {
		t.Fatal("doc.go: no table of the paper's quantities found")
	}
	return rows
}

// Every program doc.go's map names is a directory under cmd/ or
// examples/, every benchmark it names is a function in bench_test.go,
// and cmd/experiments prints every row, as the package doc says.
func TestDocMapNamesWhatExists(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "bench_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	benches := map[string]bool{}
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
			benches[fn.Name.Name] = true
		}
	}
	isDir := func(path string) bool {
		fi, err := os.Stat(path)
		return err == nil && fi.IsDir()
	}
	for _, row := range docRows(t) {
		if len(row.printedBy) == 0 || len(row.benchmarks) == 0 {
			t.Errorf("row %q: names no program or no benchmark", row.quantity)
		}
		experiments := false
		for _, name := range row.printedBy {
			experiments = experiments || name == "experiments"
			if !isDir("cmd/"+name) && !isDir("examples/"+name) {
				t.Errorf("row %q: printed by %q, which is neither cmd/%[2]s nor examples/%[2]s", row.quantity, name)
			}
		}
		if !experiments {
			t.Errorf("row %q: cmd/experiments does not print it", row.quantity)
		}
		for _, name := range row.benchmarks {
			if !strings.HasPrefix(name, "Benchmark") || !benches[name] {
				t.Errorf("row %q: benchmark %q is not a function in bench_test.go", row.quantity, name)
			}
		}
	}
}

// moduleDecls is what the module declares, for checking the names
// prose cites: every top-level function name (tests included), and per
// package name every top-level identifier plus "Type.Member" for each
// method and struct field or interface method.
func moduleDecls(t *testing.T) (funcs map[string]bool, pkgs map[string]map[string]bool) {
	t.Helper()
	loaded, err := analysis.LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	funcs, pkgs = map[string]bool{}, map[string]map[string]bool{}
	for _, p := range loaded {
		for _, f := range p.Files {
			pkg := f.AST.Name.Name
			if pkgs[pkg] == nil {
				pkgs[pkg] = map[string]bool{}
			}
			names := pkgs[pkg]
			for _, d := range f.AST.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						funcs[d.Name.Name] = true
						names[d.Name.Name] = true
					} else if recv := receiverType(d.Recv.List[0].Type); recv != "" {
						names[recv+"."+d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						declareSpec(names, spec)
					}
				}
			}
		}
	}
	delete(pkgs, "main")
	return funcs, pkgs
}

// declareSpec adds a var, const or type spec's names to names, and for
// a struct or interface type each "Type.Member".
func declareSpec(names map[string]bool, spec ast.Spec) {
	switch spec := spec.(type) {
	case *ast.ValueSpec:
		for _, n := range spec.Names {
			names[n.Name] = true
		}
	case *ast.TypeSpec:
		names[spec.Name.Name] = true
		var members []*ast.Field
		switch typ := spec.Type.(type) {
		case *ast.StructType:
			members = typ.Fields.List
		case *ast.InterfaceType:
			members = typ.Methods.List
		}
		for _, m := range members {
			for _, n := range m.Names {
				names[spec.Name.Name+"."+n.Name] = true
			}
			if len(m.Names) == 0 { // embedded
				names[spec.Name.Name+"."+receiverType(m.Type)] = true
			}
		}
	}
}

// receiverType names the type of a receiver or embedded field: T, *T,
// T[P] and pkg.T all name T.
func receiverType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverType(e.X)
	case *ast.IndexExpr:
		return receiverType(e.X)
	case *ast.IndexListExpr:
		return receiverType(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

var (
	codeSpanRe = regexp.MustCompile("`([^`]+)`")
	testNameRe = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_*][\w*]*`)
	// A pkg.Name or pkg.Type.Member with an exported Name. Lower-case
	// dotted names in prose are metrics (core.plan_bytes_frac_of_rs),
	// and file names (codec.go) are neither.
	qualifiedRe = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?`)
)

// Every Go name README.md cites in a code span is one the module
// declares: each TestX, BenchmarkX and FuzzX (a "*" in one is a glob, as
// in BenchmarkExecuteRepair_*_Parity) is a function, and each
// pkg.Name or pkg.Type.Member whose pkg is one of the module's packages
// is declared there. Fenced blocks are skipped: they hold diagrams and
// command lines, not citations.
func TestReadmeNamesWhatExists(t *testing.T) {
	src, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var prose strings.Builder
	fenced := false
	for _, line := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			prose.WriteString(line + "\n")
		}
	}
	funcs, pkgs := moduleDecls(t)
	for _, span := range codeSpanRe.FindAllStringSubmatch(prose.String(), -1) {
		for _, name := range testNameRe.FindAllString(span[1], -1) {
			glob := regexp.MustCompile("^" + strings.ReplaceAll(regexp.QuoteMeta(name), `\*`, `\w*`) + "$")
			found := false
			for fn := range funcs {
				if found = glob.MatchString(fn); found {
					break
				}
			}
			if !found {
				t.Errorf("README.md cites %s, which no function in the module matches", name)
			}
		}
		for _, m := range qualifiedRe.FindAllStringSubmatch(span[1], -1) {
			names, ok := pkgs[m[1]]
			if !ok {
				continue
			}
			name := m[2]
			if m[3] != "" {
				name += "." + m[3]
			}
			if !names[name] {
				t.Errorf("README.md cites %s.%s, which package %s does not declare", m[1], name, m[1])
			}
		}
	}
}
