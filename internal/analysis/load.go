package analysis

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

// Package is one loaded, parsed and type-checked package.
type Package struct {
	Path  string // import path
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Errs holds parse and type-check errors. A package with errors is
	// not analyzed; the driver reports the errors instead.
	Errs []error
}

// Loader parses and type-checks packages of one module from source, so
// it needs no precompiled export data. go/build selects each package's
// files as the go tool would. Module-internal imports are resolved
// recursively from the module tree; every other import goes to the
// loader's own standard-library importer, which type-checks each
// package once, from source, without its function bodies and only as
// far as an importer can see it (see stdImporter).
type Loader struct {
	ModulePath string
	RootDir    string

	fset    *token.FileSet
	std     *stdImporter
	pkgs    map[string]*Package
	loading map[string]bool
	dirs    *Directives
}

// NewLoader builds a loader for the module rooted at dir. When modulePath
// is empty it is read from dir/go.mod.
func NewLoader(dir, modulePath string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if modulePath == "" {
		modulePath, err = moduleName(filepath.Join(abs, "go.mod"))
		if err != nil {
			return nil, err
		}
	}
	fset := token.NewFileSet()
	return &Loader{
		ModulePath: modulePath,
		RootDir:    abs,
		fset:       fset,
		std:        newStdImporter(fset),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
		dirs:       NewDirectives(),
	}, nil
}

// moduleName extracts the module path from a go.mod file.
func moduleName(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: cannot determine module path: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Fset exposes the loader's file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Packages returns every package the loader has loaded — targets and
// their module-internal dependencies — sorted by import path.
func (l *Loader) Packages() []*Package {
	var out []*Package
	for _, p := range l.pkgs {
		if p != nil {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Directives exposes the directive index accumulated across every loaded
// package (targets and their module-internal dependencies).
func (l *Loader) Directives() *Directives { return l.dirs }

// Load resolves the patterns ("./...", "./internal/tile", "internal/tile")
// to package directories under the module root and loads each. The
// returned slice holds only the matched packages, sorted by import path;
// dependencies are loaded (and their directives indexed) but not
// returned.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var out []*Package
	for _, pat := range patterns {
		dirs, err := l.expand(pat)
		if err != nil {
			return nil, err
		}
		for _, dir := range dirs {
			path, err := l.importPathFor(dir)
			if err != nil {
				return nil, err
			}
			if seen[path] {
				continue
			}
			seen[path] = true
			pkg, err := l.loadPackage(path)
			if err != nil {
				return nil, err
			}
			if pkg != nil {
				out = append(out, pkg)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// expand resolves one pattern to package directories.
func (l *Loader) expand(pat string) ([]string, error) {
	pat = strings.TrimPrefix(pat, "./")
	if pat == "..." {
		return l.walkDirs(l.RootDir)
	}
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		return l.walkDirs(filepath.Join(l.RootDir, rest))
	}
	dir := filepath.Join(l.RootDir, pat)
	if !hasGoFiles(dir) {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	return []string{dir}, nil
}

// walkDirs finds every directory under root holding non-test Go files,
// skipping hidden directories, testdata trees and vendor directories
// (mirroring the go tool's ./... semantics).
func (l *Loader) walkDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && sourceFileName(e.Name()) {
			return true
		}
	}
	return false
}

// sourceFileName reports whether a file name belongs to the buildable,
// non-test source set: the go tool ignores files starting with "_" or
// "." entirely, and _test.go files are the test build.
func sourceFileName(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, "_") &&
		!strings.HasPrefix(name, ".")
}

func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.RootDir, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

func (l *Loader) dirForImport(path string) string {
	if path == l.ModulePath {
		return l.RootDir
	}
	rel := strings.TrimPrefix(path, l.ModulePath+"/")
	return filepath.Join(l.RootDir, filepath.FromSlash(rel))
}

// loadPackage parses and type-checks one module package (cached). A nil
// package with nil error means the directory holds no Go files.
func (l *Loader) loadPackage(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	// The go tool's own file selection: build constraints, filename
	// suffixes and cgo are judged by go/build, from each file's header,
	// against the same context the standard-library importer resolves in.
	dir := l.dirForImport(path)
	bp, err := build.Default.ImportDir(dir, 0)
	if _, ok := err.(*build.NoGoError); ok {
		l.pkgs[path] = nil
		return nil, nil
	}
	names := append(append([]string(nil), bp.GoFiles...), bp.CgoFiles...)
	sort.Strings(names)
	pkg := &Package{Path: path, Dir: dir, Fset: l.fset}
	pkg.Files, pkg.Errs = parseFiles(l.fset, dir, names, parser.ParseComments, false)
	if err != nil && len(pkg.Errs) == 0 {
		// A problem the parser cannot see: an unreadable directory, a
		// malformed constraint, files of two packages.
		pkg.Errs = append(pkg.Errs, err)
	}
	if len(pkg.Files) == 0 && len(pkg.Errs) == 0 {
		l.pkgs[path] = nil
		return nil, nil
	}

	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { pkg.Errs = append(pkg.Errs, err) },
	}
	tpkg, _ := conf.Check(path, l.fset, pkg.Files, pkg.Info)
	pkg.Types = tpkg
	l.pkgs[path] = pkg
	if len(pkg.Errs) == 0 {
		l.dirs.Collect(pkg)
	}
	return pkg, nil
}

// loaderImporter routes module-internal imports back through the loader
// and everything else to the stdlib source importer.
type loaderImporter Loader

// Import implements types.Importer.
func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.loadPackage(path)
		if err != nil {
			return nil, err
		}
		if pkg == nil || pkg.Types == nil {
			return nil, fmt.Errorf("analysis: no package at %s", path)
		}
		if len(pkg.Errs) > 0 {
			return nil, fmt.Errorf("analysis: dependency %s has errors: %v", path, pkg.Errs[0])
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
