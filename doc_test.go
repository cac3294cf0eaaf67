package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
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
