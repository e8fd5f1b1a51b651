// Package loader type-checks the module's packages using only the
// standard library, producing the syntax trees and type information the
// ndvet analyzers run over.
//
// The usual foundation for a go/analysis suite is
// golang.org/x/tools/go/packages, but this module is dependency-free by
// policy, so the loader rebuilds the small slice of that machinery it
// needs: package discovery by walking the module tree (./... patterns,
// skipping testdata/vendor/hidden directories exactly like the go
// tool), per-directory file selection through go/build, and
// type-checking through go/types with a two-way importer — module
// packages resolve recursively against the module root, everything else
// resolves through the compiler "source" importer, which type-checks
// the standard library from GOROOT sources and needs neither export
// data nor a network.
//
// Test files are part of the analysis surface (closecheck exists for
// them), so a loaded package includes its in-package _test.go files,
// and an external test package (package foo_test) is returned as its
// own Package whose import of foo resolves to the test-augmented
// version, mirroring how `go test` builds it.
package loader

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	// PkgPath is the package's import path. External test packages
	// carry the real path with a "_test" suffix, e.g.
	// "ndsearch/internal/ann_test".
	PkgPath string
	// Dir is the directory the package's files live in.
	Dir string
	// Fset is the file set all token.Pos values resolve through. It is
	// shared by every package from the same Loader.
	Fset *token.FileSet
	// Files are the parsed files: non-test plus in-package test files,
	// or only the external test files for a "_test" package.
	Files []*ast.File
	// Types and Info hold the go/types results for Files.
	Types *types.Package
	Info  *types.Info
	// TestFileNames marks which entries of Files came from _test.go
	// files, keyed by the file's base name.
	TestFileNames map[string]bool
}

// IsTestFile reports whether f was parsed from a _test.go file.
func (p *Package) IsTestFile(f *ast.File) bool {
	pos := p.Fset.Position(f.Package)
	return p.TestFileNames[filepath.Base(pos.Filename)]
}

// Loader loads and type-checks packages of a single module.
type Loader struct {
	Fset *token.FileSet

	moduleRoot string
	modulePath string

	ctxt build.Context
	std  types.ImporterFrom

	// pure caches module packages type-checked without their test
	// files, as seen by importers of the package.
	pure    map[string]*types.Package
	loading map[string]bool
}

// New returns a Loader for the module rooted at moduleRoot (the
// directory holding go.mod).
func New(moduleRoot string) (*Loader, error) {
	abs, err := filepath.Abs(moduleRoot)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	ctxt := build.Default
	// The source importer preprocesses cgo files by invoking a C
	// compiler; with cgo off the standard library selects its pure-Go
	// fallbacks (netgo et al), which type-check anywhere.
	ctxt.CgoEnabled = false
	l := &Loader{
		Fset:       fset,
		moduleRoot: abs,
		modulePath: modPath,
		ctxt:       ctxt,
		pure:       map[string]*types.Package{},
		loading:    map[string]bool{},
	}
	l.std = newSourceImporter(&l.ctxt, fset)
	return l, nil
}

// ModulePath returns the module's import path prefix.
func (l *Loader) ModulePath() string { return l.modulePath }

func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("loader: cannot find module root: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("loader: no module directive in %s", gomod)
}

// Load resolves the given patterns ("./...", "./internal/foo", or
// module-relative directories) and returns the matched packages
// type-checked with their test files included. External test packages
// follow the package they test in the returned slice.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		got, err := l.loadAnalysisDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, got...)
	}
	return pkgs, nil
}

// LoadDir type-checks the single directory dir as import path pkgPath,
// without consulting the module layout. It exists for analysis tests
// whose fixture packages live under testdata (which pattern expansion
// deliberately skips).
func (l *Loader) LoadDir(dir, pkgPath string) ([]*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.loadDirAs(abs, pkgPath)
}

func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		root := pat
		if !filepath.IsAbs(root) {
			root = filepath.Join(l.moduleRoot, root)
		}
		if !recursive {
			add(filepath.Clean(root))
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if l.hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

func (l *Loader) hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.moduleRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("loader: %s is outside module %s", dir, l.moduleRoot)
	}
	if rel == "." {
		return l.modulePath, nil
	}
	return l.modulePath + "/" + filepath.ToSlash(rel), nil
}

func (l *Loader) loadAnalysisDir(dir string) ([]*Package, error) {
	pkgPath, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	return l.loadDirAs(dir, pkgPath)
}

func (l *Loader) loadDirAs(dir, pkgPath string) ([]*Package, error) {
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil, nil
		}
		return nil, err
	}
	var pkgs []*Package

	// The package proper, with in-package test files merged in — the
	// same compilation unit `go test` checks.
	names := append(append([]string{}, bp.GoFiles...), bp.TestGoFiles...)
	testNames := map[string]bool{}
	for _, n := range bp.TestGoFiles {
		testNames[n] = true
	}
	var augmented *types.Package
	if len(names) > 0 {
		pkg, err := l.check(dir, pkgPath, names, testNames)
		if err != nil {
			return nil, err
		}
		augmented = pkg.Types
		pkgs = append(pkgs, pkg)
	}

	// The external test package, importing the augmented version of
	// the package under test. Its importer gets a private cache holding
	// that version plus every already-checked package that does not
	// depend on it, so dependents of the package under test are
	// re-checked against the augmented version — the recompilation
	// `go test` performs — instead of mixing two type universes.
	if len(bp.XTestGoFiles) > 0 {
		xTestNames := map[string]bool{}
		for _, n := range bp.XTestGoFiles {
			xTestNames[n] = true
		}
		imp := &moduleImporter{l: l, cache: l.pure}
		if augmented != nil {
			imp.cache = map[string]*types.Package{pkgPath: augmented}
			for path, p := range l.pure {
				if path != pkgPath && !imports(p, pkgPath, map[*types.Package]bool{}) {
					imp.cache[path] = p
				}
			}
		}
		pkg, err := l.checkWith(dir, pkgPath+"_test", bp.XTestGoFiles, xTestNames, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// imports reports whether p transitively imports the package at path.
func imports(p *types.Package, path string, seen map[*types.Package]bool) bool {
	if seen[p] {
		return false
	}
	seen[p] = true
	for _, q := range p.Imports() {
		if q.Path() == path || imports(q, path, seen) {
			return true
		}
	}
	return false
}

func (l *Loader) check(dir, pkgPath string, names []string, testNames map[string]bool) (*Package, error) {
	return l.checkWith(dir, pkgPath, names, testNames, &moduleImporter{l: l, cache: l.pure})
}

func (l *Loader) checkWith(dir, pkgPath string, names []string, testNames map[string]bool, imp types.Importer) (*Package, error) {
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var errs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, err := conf.Check(pkgPath, l.Fset, files, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("loader: type-checking %s: %w", pkgPath, errs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("loader: type-checking %s: %w", pkgPath, err)
	}
	return &Package{
		PkgPath:       pkgPath,
		Dir:           dir,
		Fset:          l.Fset,
		Files:         files,
		Types:         tpkg,
		Info:          info,
		TestFileNames: testNames,
	}, nil
}

// importPure returns the types-only view of a module package as seen by
// its importers: non-test files, cycle-checked, resolved through imp and
// cached in imp.cache.
func (l *Loader) importPure(pkgPath string, imp *moduleImporter) (*types.Package, error) {
	if p, ok := imp.cache[pkgPath]; ok {
		return p, nil
	}
	if l.loading[pkgPath] {
		return nil, fmt.Errorf("loader: import cycle through %s", pkgPath)
	}
	l.loading[pkgPath] = true
	defer delete(l.loading, pkgPath)

	rel := strings.TrimPrefix(pkgPath, l.modulePath)
	dir := filepath.Join(l.moduleRoot, filepath.FromSlash(strings.TrimPrefix(rel, "/")))
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("loader: import %q: %w", pkgPath, err)
	}
	pkg, err := l.checkWith(dir, pkgPath, append([]string{}, bp.GoFiles...), nil, imp)
	if err != nil {
		return nil, err
	}
	imp.cache[pkgPath] = pkg.Types
	return pkg.Types, nil
}

// moduleImporter routes module-internal import paths to the loader and
// everything else (the standard library) to the source importer.
type moduleImporter struct {
	l *Loader
	// cache holds the module packages type-checked through this
	// importer: the loader-wide l.pure for ordinary imports, a private
	// map seeded with the test-augmented package under test when
	// checking an external test package.
	cache map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == m.l.modulePath || strings.HasPrefix(path, m.l.modulePath+"/") {
		return m.l.importPure(path, m)
	}
	return m.l.std.ImportFrom(path, m.l.moduleRoot, 0)
}
