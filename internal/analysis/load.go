package analysis

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// moduleRe extracts the module path from a go.mod.
var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// skipDirs are directory names the loader never descends into.
// testdata holds analyzer fixtures (including trees that deliberately
// violate every rule); bin holds built tools.
var skipDirs = map[string]bool{
	"testdata":     true,
	"vendor":       true,
	"bin":          true,
	".git":         true,
	".github":      true,
	"node_modules": true,
}

// LoadModule parses every Go package under root (a module root
// containing go.mod) and returns one Package per directory, sorted by
// import path. Only parsing happens — no type checking — so a tree
// loads in milliseconds and broken fixtures load like real code.
func LoadModule(root string) ([]*Package, error) {
	modBytes, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: reading go.mod: %w", err)
	}
	m := moduleRe.FindSubmatch(modBytes)
	if m == nil {
		return nil, fmt.Errorf("analysis: no module line in %s", filepath.Join(root, "go.mod"))
	}
	modPath := string(m[1])

	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != root && (skipDirs[d.Name()] || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := loadDir(fset, root, modPath, dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	mod := &Module{Path: modPath, Packages: pkgs}
	for _, pkg := range pkgs {
		pkg.Module = mod
	}
	return pkgs, nil
}

// loadDir parses one directory's .go files; nil when it has none.
func loadDir(fset *token.FileSet, root, modPath, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	importPath := modPath
	if rel != "." {
		importPath = modPath + "/" + filepath.ToSlash(rel)
	}
	var files []*File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		name := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, &File{
			Name:   name,
			AST:    f,
			IsTest: strings.HasSuffix(e.Name(), "_test.go"),
		})
	}
	if len(files) == 0 {
		return nil, nil
	}
	return &Package{ImportPath: importPath, Dir: dir, Fset: fset, Files: files}, nil
}
