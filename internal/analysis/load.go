package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and (best-effort) type-checked package of the module
// under analysis. Test files (_test.go) are excluded: custodylint guards the
// production sources; tests are free to use wall clocks and ad-hoc ordering.
type Package struct {
	Path  string      // import path, e.g. "repro/internal/core"
	Dir   string      // absolute directory
	Files []*ast.File // non-test files, sorted by filename

	// Types and Info are filled by type checking. Checking is best-effort:
	// a package that fails to fully type-check still gets analyzed with
	// whatever information was recovered, and TypeErrors records what went
	// wrong. Analyzers must tolerate missing type information.
	Types      *types.Package
	Info       *types.Info
	TypeErrors []error
}

// Module is a whole Go module loaded for analysis.
type Module struct {
	Root     string // absolute module root directory
	Path     string // module path from go.mod (or caller-supplied)
	Fset     *token.FileSet
	Packages []*Package // sorted by import path

	byPath map[string]*Package

	// Lazily built module-wide annotation index shared by the analyzers.
	// Run is sequential over packages, so plain memoization suffices.
	ann *annIndex
}

// FindModuleRoot walks up from dir looking for a go.mod and returns the
// directory that contains it.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		abs = parent
	}
}

// LoadModule loads the module rooted at root, reading the module path from
// root/go.mod.
func LoadModule(root string) (*Module, error) {
	path, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return Load(root, path)
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// Load parses every package under root (skipping testdata, hidden, and
// underscore-prefixed directories) and type-checks them in dependency order.
// modPath is used as the module path when mapping directories to import
// paths; it lets fixture trees without a go.mod be loaded as modules.
//
// Load walks the directory tree itself instead of shelling out to the go
// tool or depending on golang.org/x/tools/go/packages, so the module's
// go.mod stays dependency-free.
func Load(root, modPath string) (*Module, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	m := &Module{
		Root:   absRoot,
		Path:   modPath,
		Fset:   token.NewFileSet(),
		byPath: map[string]*Package{},
	}

	dirs := map[string][]string{} // dir -> .go files (non-test)
	err = filepath.WalkDir(absRoot, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != absRoot && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(p)
		dirs[dir] = append(dirs[dir], p)
		return nil
	})
	if err != nil {
		return nil, err
	}

	for dir, files := range dirs {
		rel, err := filepath.Rel(absRoot, dir)
		if err != nil {
			return nil, err
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg := &Package{Path: importPath, Dir: dir}
		sort.Strings(files)
		for _, fp := range files {
			src, err := os.ReadFile(fp)
			if err != nil {
				return nil, err
			}
			relName, err := filepath.Rel(absRoot, fp)
			if err != nil {
				return nil, err
			}
			// Parse under the root-relative name so diagnostics print
			// stable, readable positions regardless of where the tool runs.
			f, err := parser.ParseFile(m.Fset, filepath.ToSlash(relName), src, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parse %s: %w", fp, err)
			}
			pkg.Files = append(pkg.Files, f)
		}
		m.Packages = append(m.Packages, pkg)
		m.byPath[importPath] = pkg
	}
	sort.Slice(m.Packages, func(i, j int) bool { return m.Packages[i].Path < m.Packages[j].Path })

	imp := &moduleImporter{
		m:        m,
		fallback: importer.ForCompiler(m.Fset, "gc", nil),
		checking: map[string]bool{},
	}
	for _, pkg := range m.Packages {
		m.check(pkg, imp)
	}
	return m, nil
}

// moduleImporter resolves module-local import paths against the loaded
// packages (type-checking them on demand) and everything else — in practice
// the standard library — through the compiled export data the go command
// keeps in its build cache.
type moduleImporter struct {
	m        *Module
	fallback types.Importer
	checking map[string]bool
}

func (imp *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := imp.m.byPath[path]; ok {
		if pkg.Types == nil {
			if imp.checking[path] {
				return nil, fmt.Errorf("import cycle through %s", path)
			}
			imp.m.check(pkg, imp)
		}
		return pkg.Types, nil
	}
	return imp.fallback.Import(path)
}

// check type-checks pkg, recording rather than failing on errors so that
// analysis stays best-effort on in-progress code.
func (m *Module) check(pkg *Package, imp *moduleImporter) {
	if pkg.Types != nil {
		return
	}
	imp.checking[pkg.Path] = true
	defer delete(imp.checking, pkg.Path)

	conf := types.Config{
		Importer:    imp,
		FakeImportC: true,
		Error:       func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tpkg, _ := conf.Check(pkg.Path, m.Fset, pkg.Files, pkg.Info) //custody:ignore errdrop type errors are collected via conf.Error; analysis is best-effort
	pkg.Types = tpkg                                             // non-nil even when Check reports errors
}
