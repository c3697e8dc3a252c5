// Package loader parses and typechecks Go packages for parcvet using
// nothing but the standard library. The hermetic build environment has no
// module proxy, so golang.org/x/tools/go/packages is unavailable; this
// loader covers the subset parcvet needs:
//
//   - packages inside one module (resolved from the module root by path),
//   - standard-library imports (typechecked from GOROOT source via
//     go/importer's "source" compiler, which needs no export data),
//   - synthetic fixture packages supplied as in-memory source (used by
//     the golden tests and the A7 experiment).
//
// Test files (_test.go) are not loaded: parcvet analyzes production code,
// and external test packages would need a second typechecking universe.
package loader

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

// Package is one loaded, typechecked package.
type Package struct {
	// Path is the import path ("parc751/internal/pyjama", or a synthetic
	// "fixture/…" path for in-memory sources).
	Path string
	// Dir is the on-disk directory, empty for in-memory packages.
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader loads packages of one module. It caches typechecked packages, so
// loading "./..." typechecks every package (and the stdlib packages they
// reach) exactly once.
type Loader struct {
	ModuleRoot string
	ModulePath string
	// goVersion is go.mod's go directive ("go1.24"), the language version
	// files are typechecked at unless a //go:build line downgrades one
	// (see types.Info.FileVersions); empty when go.mod has none.
	goVersion string

	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// New creates a loader for the module rooted at dir (the directory
// containing go.mod).
func New(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, goVersion, err := readGoMod(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: abs,
		ModulePath: modPath,
		goVersion:  goVersion,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// FindModuleRoot walks up from start to the nearest directory containing
// go.mod.
func FindModuleRoot(start string) (string, error) {
	dir, err := filepath.Abs(start)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("loader: no go.mod found above %s", start)
		}
		dir = parent
	}
}

// readGoMod extracts the module path and the go directive, as a
// go/version string ("go1.24"), from a go.mod file.
func readGoMod(gomod string) (modPath, goVersion string, err error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.Trim(strings.TrimSpace(rest), `"`)
		} else if rest, ok := strings.CutPrefix(line, "go "); ok {
			goVersion = "go" + strings.TrimSpace(rest)
		}
	}
	if modPath == "" {
		return "", "", fmt.Errorf("loader: no module declaration in %s", gomod)
	}
	return modPath, goVersion, nil
}

// Fset returns the shared file set (one per loader, so positions from any
// loaded package resolve).
func (l *Loader) Fset() *token.FileSet { return l.fset }

// RelPos renders pos as "file:line:col", with the file relative to the
// module root when it lies inside it — the position format of every
// parcvet and parcpar finding.
func (l *Loader) RelPos(pos token.Pos) string {
	posn := l.fset.Position(pos)
	name := posn.Filename
	if rel, err := filepath.Rel(l.ModuleRoot, name); err == nil && !strings.HasPrefix(rel, "..") {
		name = filepath.ToSlash(rel)
	}
	return fmt.Sprintf("%s:%d:%d", name, posn.Line, posn.Column)
}

// Load resolves the given patterns to packages and typechecks them.
// Supported patterns: "./..." (every package under the module root),
// "dir/..." (every package under dir), and plain directories (relative to
// the module root or absolute).
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			expanded, err := l.expand(l.ModuleRoot)
			if err != nil {
				return nil, err
			}
			for _, d := range expanded {
				add(d)
			}
		case strings.HasSuffix(pat, "/..."):
			root := l.absDir(strings.TrimSuffix(pat, "/..."))
			expanded, err := l.expand(root)
			if err != nil {
				return nil, err
			}
			for _, d := range expanded {
				add(d)
			}
		default:
			add(l.absDir(pat))
		}
	}
	var out []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir, l.importPathFor(dir))
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

func (l *Loader) absDir(p string) string {
	if filepath.IsAbs(p) {
		return filepath.Clean(p)
	}
	return filepath.Join(l.ModuleRoot, p)
}

// expand walks root for directories containing buildable Go files,
// skipping testdata, vendor, and hidden directories, and nested modules
// (a directory below root with its own go.mod), as go build ./... does.
func (l *Loader) expand(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if p != root {
			name := d.Name()
			if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		if bp, err := build.ImportDir(p, 0); err == nil && len(bp.GoFiles) > 0 {
			out = append(out, p)
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}

// importPathFor maps a module-internal directory to its import path.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "command-line-arguments/" + filepath.Base(dir)
	}
	if rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

// LoadDir typechecks the single package in dir under the given import
// path, using build constraints for the current platform and skipping
// test files.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("loader: %s: %w", dir, err)
	}
	files := map[string]string{}
	for _, name := range bp.GoFiles {
		files[filepath.Join(dir, name)] = ""
	}
	return l.check(importPath, dir, files)
}

// CheckSource typechecks an in-memory package: files maps file names to
// source text. Imports of module-internal packages resolve against the
// loader's module; everything else resolves as stdlib.
func (l *Loader) CheckSource(importPath string, files map[string]string) (*Package, error) {
	named := map[string]string{}
	for name, src := range files {
		named[name] = src
	}
	return l.check(importPath, "", named)
}

// check parses and typechecks one package. files maps path → source; an
// empty source means "read from disk".
func (l *Loader) check(importPath, dir string, files map[string]string) (*Package, error) {
	if l.loading[importPath] {
		return nil, fmt.Errorf("loader: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)

	var astFiles []*ast.File
	for _, name := range names {
		var src any
		if s := files[name]; s != "" {
			src = s
		}
		f, err := parser.ParseFile(l.fset, name, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		astFiles = append(astFiles, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
		// FileVersions carries each file's language version, which
		// decides, e.g., whether a for-loop variable is per-iteration.
		FileVersions: map[*ast.File]string{},
	}
	conf := types.Config{Importer: importerFunc(l.importPkg), GoVersion: l.goVersion}
	tpkg, err := conf.Check(importPath, l.fset, astFiles, info)
	if err != nil {
		return nil, fmt.Errorf("loader: typecheck %s: %w", importPath, err)
	}
	pkg := &Package{Path: importPath, Dir: dir, Files: astFiles, Types: tpkg, Info: info}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// importPkg resolves one import during typechecking.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "C" {
		return nil, fmt.Errorf("loader: cgo is not supported")
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		pkg, err := l.LoadDir(filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
