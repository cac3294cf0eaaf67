package analysis

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts a golden expectation: a `// want "regexp"` comment
// on the line a diagnostic must be reported for.
var wantRe = regexp.MustCompile(`//\s*want\s+"((?:[^"\\]|\\.)*)"`)

// runGolden parses every .go file under dir as one package with the
// given import path and diffs the analyzer's findings against the
// files' `// want "..."` comments (see checkGolden).
func runGolden(t *testing.T, az Analyzer, dir, importPath string) {
	t.Helper()
	checkGolden(t, az, []*Package{parseTestdata(t, dir, importPath)})
}

// runModuleGolden loads the module rooted at dir, as repolint does, and
// diffs the analyzer's findings over every package of it against their
// files' `// want "..."` comments — for rules that span packages.
func runModuleGolden(t *testing.T, az Analyzer, dir string) {
	t.Helper()
	pkgs, err := LoadModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, az, pkgs)
}

// checkGolden runs the analyzer over pkgs (with //repolint:ignore
// directives applied, so goldens cover suppression behaviour too) and
// diffs the diagnostics against the files' `// want "..."` comments:
// every want must match a reported diagnostic on its line, and every
// diagnostic must be covered by a want.
func checkGolden(t *testing.T, az Analyzer, pkgs []*Package) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	var diags []Diagnostic
	wants := map[key][]*regexp.Regexp{}
	for _, pkg := range pkgs {
		found := az.Check(pkg)
		sups, probs := CollectSuppressions(pkg, []Analyzer{az})
		diags = append(diags, ApplySuppressions(found, sups)...)
		diags = append(diags, probs...)
		diags = append(diags, StaleSuppressions(sups)...)
		for _, f := range pkg.Files {
			src, err := os.ReadFile(f.Name)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", f.Name, i+1, m[1], err)
					}
					wants[key{f.Name, i + 1}] = append(wants[key{f.Name, i + 1}], re)
				}
			}
		}
	}

	matched := map[*regexp.Regexp]bool{}
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		found := false
		for _, re := range wants[k] {
			if re.MatchString(d.Message) {
				matched[re] = true
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic %s", d)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			if !matched[re] {
				t.Errorf("%s:%d: want %q matched no diagnostic", k.file, k.line, re)
			}
		}
	}
}

// parseTestdata loads dir's files as a Package without type checking.
func parseTestdata(t *testing.T, dir, importPath string) *Package {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		name := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, &File{Name: name, AST: f, IsTest: strings.HasSuffix(e.Name(), "_test.go")})
	}
	if len(files) == 0 {
		t.Fatalf("no .go files in %s", dir)
	}
	return &Package{ImportPath: importPath, Dir: dir, Fset: fset, Files: files}
}
