package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of the module.
type Package struct {
	Path  string // import path ("mpclogic/internal/rel")
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	modRoot string
}

// Module is a fully loaded module: every package under the root,
// parsed and type-checked against the standard library from source.
type Module struct {
	Root     string // absolute module root (directory of go.mod)
	Path     string // module path from go.mod
	Fset     *token.FileSet
	Packages []*Package // sorted by import path
}

// LoadModule loads and type-checks every package of the module rooted
// at root (the directory containing go.mod). Test files are skipped:
// the analyzers enforce production invariants, and tests are exempt
// from several of them by design.
//
// Intra-module imports are resolved by loading the imported package
// from source; standard-library imports are type-checked from GOROOT
// source via go/importer, so loading works offline with zero module
// dependencies.
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	ld := &loader{
		fset:    fset,
		root:    root,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	mod := &Module{Root: root, Path: modPath, Fset: fset}
	for _, dir := range dirs {
		pkg, err := ld.load(ld.importPath(dir), dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			mod.Packages = append(mod.Packages, pkg)
		}
	}
	sort.Slice(mod.Packages, func(i, j int) bool {
		return mod.Packages[i].Path < mod.Packages[j].Path
	})
	return mod, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: cannot read %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// packageDirs returns every directory under root holding non-test Go
// files, skipping testdata, vendor, hidden and underscore directories.
func packageDirs(root string) ([]string, error) {
	var dirs []string
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
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if isSourceFile(e.Name()) {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	return dirs, err
}

func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// inDefaultBuild reports whether the default build (no tags) compiles
// file name of dir: the analyzers check the program `go build` makes,
// not a file its build constraint keeps out (rel's vouchcheck.go).
func inDefaultBuild(dir, name string) bool {
	ok, err := build.Default.MatchFile(dir, name)
	return ok || err != nil // an unreadable file fails loudly at parse
}

// loader type-checks module packages on demand, memoizing results; it
// is the types.Importer used for intra-module imports.
type loader struct {
	fset    *token.FileSet
	root    string
	modPath string
	std     types.ImporterFrom
	pkgs    map[string]*Package
	loading map[string]bool
}

func (l *loader) importPath(dir string) string {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || rel == "." {
		return l.modPath
	}
	return l.modPath + "/" + filepath.ToSlash(rel)
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		pkg, err := l.load(path, filepath.Join(l.root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: import %q resolves to a directory with no Go files", path)
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// load parses and type-checks the package in dir, returning nil for
// directories with no non-test Go files.
func (l *loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if isSourceFile(e.Name()) && inDefaultBuild(dir, e.Name()) {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{
		Path:    path,
		Dir:     dir,
		Files:   files,
		Types:   tpkg,
		Info:    info,
		modRoot: l.root,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}
