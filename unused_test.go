package parc751

// The unused-identifier check: every package-level identifier and method
// declared under internal/ must have a caller outside its own package's
// tests, or carry a keep directive that says why it stays. It type-checks
// the whole module with the parcvet loader, so it needs no second pass kind
// in parcvet and runs in the ordinary `go test ./...`.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"parc751/internal/parcvet/loader"
)

// keepDirective marks an identifier that stays without a caller. It reuses
// parcvet's suppression form with the rule "unused":
//
//	//parcvet:ignore unused <reason-kind> <free text>
//
// on the declaration's line or the line above it.
const keepDirective = "//parcvet:ignore unused"

// keepReasons are the only reasons an uncalled identifier may stay, keyed by
// the word that must open the directive's reason.
var keepReasons = map[string]string{
	"reference": "a sequential reference a test compares a parallel implementation against",
	"fake":      "a test fake",
	"api":       "Parallel Task, Pyjama or reduction API, or a project-library variant a DESIGN.md P-table row names",
	"course":    "course machinery (§III)",
}

// unusedFinding is one identifier nothing calls.
type unusedFinding struct {
	pos  token.Position
	name string // "Name" or "Recv.Name"
}

// candidate is one declaration the check judges.
type candidate struct {
	obj   types.Object
	name  string
	dir   string
	pkg   string         // import path of the declaring package
	spans [][2]token.Pos // its own declaration (and, for a type, its methods)
	used  bool
}

// findUnused reports every package-level func, type, var and const, and
// every method, declared in a loaded package whose import path lies under
// internal/ (testdata excluded) that nothing uses. A use is
//
//   - a typed reference from the production code of any loaded package, its
//     own included, outside the identifier's own declaration (generic
//     instantiations resolve to their origin); or
//   - a mention in an extra file outside the declaring directory: extra holds
//     the sources the loader does not type-check (_test.go files and nested
//     modules) and is only parsed. A package-level name must appear as
//     <import name>.<Name>; a method name as any selector .Name.
//
// A method is exempt when its receiver type T or *T implements an interface
// that declares the method (one in a loaded package, named or literal, or a
// named one in any package they import); a generic interface is first
// instantiated with the receiver's type arguments. So is any identifier under
// a keep directive whose reason opens with a key of keepReasons.
func findUnused(fset *token.FileSet, pkgs []*loader.Package, extra map[string]string) ([]unusedFinding, error) {
	byObj := map[types.Object]*candidate{}
	var cands []*candidate
	byType := map[*types.TypeName]*candidate{}
	type method struct {
		recv *types.TypeName
		decl *ast.FuncDecl
	}
	var methods []method
	pkgName := map[string]string{}
	kept := map[string]map[int]bool{} // file → lines covered by a valid directive

	for _, p := range pkgs {
		pkgName[p.Path] = p.Types.Name()
		if !strings.Contains(p.Path, "/internal/") || strings.Contains(p.Path, "/testdata/") {
			continue
		}
		for _, f := range p.Files {
			fname := filepath.ToSlash(fset.Position(f.Pos()).Filename)
			kept[fname] = keptLines(fset, f)
			add := func(id *ast.Ident, name string, span ast.Node) *candidate {
				obj := p.Info.Defs[id]
				if obj == nil || id.Name == "_" || id.Name == "init" {
					return nil
				}
				c := &candidate{obj: obj, name: name, dir: filepath.Dir(fname), pkg: p.Path,
					spans: [][2]token.Pos{{span.Pos(), span.End()}}}
				byObj[obj] = c
				cands = append(cands, c)
				return c
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(d.Name, d.Name.Name, d)
						continue
					}
					if recv := recvTypeName(p.Info, d); recv != nil {
						add(d.Name, recv.Name()+"."+d.Name.Name, d)
						methods = append(methods, method{recv, d})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if c := add(s.Name, s.Name.Name, s); c != nil {
								byType[c.obj.(*types.TypeName)] = c
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, id.Name, s)
							}
						}
					}
				}
			}
		}
	}
	// A type's own methods do not make it used.
	for _, m := range methods {
		if c := byType[m.recv]; c != nil {
			c.spans = append(c.spans, [2]token.Pos{m.decl.Pos(), m.decl.End()})
		}
	}

	use := func(obj types.Object, at token.Pos) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		c := byObj[obj]
		if c == nil || c.used {
			return
		}
		for _, s := range c.spans {
			if s[0] <= at && at < s[1] {
				return
			}
		}
		c.used = true
	}
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			use(obj, id.Pos())
		}
		for sel, s := range p.Info.Selections {
			use(s.Obj(), sel.Sel.Pos())
		}
	}

	// Mentions in parsed-only files, keyed by the mentioning directory.
	qualified := map[string]map[string]bool{} // "path.Name" → dirs
	selectors := map[string]map[string]bool{} // "Name" → dirs
	mention := func(m map[string]map[string]bool, key, dir string) {
		if m[key] == nil {
			m[key] = map[string]bool{}
		}
		m[key][dir] = true
	}
	xfset := token.NewFileSet()
	for name, src := range extra {
		f, err := parser.ParseFile(xfset, name, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		dir := filepath.Dir(filepath.ToSlash(name))
		imports := map[string]string{} // local name → import path
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			local, ok := pkgName[path]
			if imp.Name != nil {
				local, ok = imp.Name.Name, true
			}
			if ok {
				imports[local] = path
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				mention(selectors, sel.Sel.Name, dir)
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					mention(qualified, imports[x.Name]+"."+sel.Sel.Name, dir)
				}
			}
			return true
		})
	}
	mentionedElsewhere := func(dirs map[string]bool, own string) bool {
		for d := range dirs {
			if d != own {
				return true
			}
		}
		return false
	}

	ifaces := interfacesByMethod(pkgs)
	var out []unusedFinding
	for _, c := range cands {
		if c.used {
			continue
		}
		if fn, ok := c.obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			if implementsDeclaring(fn, ifaces[fn.Name()]) || mentionedElsewhere(selectors[fn.Name()], c.dir) {
				continue
			}
		} else if mentionedElsewhere(qualified[c.pkg+"."+c.obj.Name()], c.dir) {
			continue
		}
		pos := fset.Position(c.obj.Pos())
		if k := kept[filepath.ToSlash(pos.Filename)]; k[pos.Line] || k[pos.Line-1] {
			continue
		}
		out = append(out, unusedFinding{pos, c.name})
	}
	return out, nil
}

// keptLines returns the lines of f that hold a keep directive with an
// allowed reason.
func keptLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			reason, ok := strings.CutPrefix(c.Text, keepDirective+" ")
			if !ok {
				continue
			}
			if fields := strings.Fields(reason); len(fields) > 1 && keepReasons[fields[0]] != "" {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// recvTypeName resolves a method declaration's receiver base type.
func recvTypeName(info *types.Info, d *ast.FuncDecl) *types.TypeName {
	t := info.Defs[d.Name].Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// interfacesByMethod indexes, by method name, every interface type declared
// in the loaded packages (named or literal) and every named one in the
// packages they import, transitively.
func interfacesByMethod(pkgs []*loader.Package) map[string][]types.Type {
	byName := map[string][]types.Type{}
	seenType := map[types.Type]bool{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seenType[t] {
			return
		}
		seenType[t] = true
		for i := 0; i < it.NumMethods(); i++ {
			byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], t)
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.Types)
		for _, tv := range p.Info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
	}
	return byName
}

// implementsDeclaring reports whether the receiver type T or *T of method fn
// implements one of ifaces. A generic interface is instantiated with the
// receiver's type arguments (the method's receiver type parameters), so
// MutexMap[K, V] is checked against Map[K, V].
func implementsDeclaring(fn *types.Func, ifaces []types.Type) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	var targs []types.Type
	for i := 0; i < named.TypeArgs().Len(); i++ {
		targs = append(targs, named.TypeArgs().At(i))
	}
	for _, t := range ifaces {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 && n.TypeArgs().Len() == 0 {
			if n.TypeParams().Len() != len(targs) {
				continue
			}
			inst, err := types.Instantiate(nil, n, targs, true)
			if err != nil {
				continue // the receiver's type arguments break a constraint
			}
			t = inst
		}
		it := t.Underlying().(*types.Interface)
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

// TestEveryIdentifierHasACaller runs the check over the whole module: every
// production package is type-checked, and every _test.go file plus the
// nested repobench module is parsed for mentions.
func TestEveryIdentifierHasACaller(t *testing.T) {
	l, err := loader.New(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	extra := map[string]string{}
	err = filepath.WalkDir(l.ModuleRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(l.ModuleRoot, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if d.Name() == "testdata" || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(rel, "_test.go") || (strings.HasPrefix(rel, "repobench/") && strings.HasSuffix(rel, ".go")) {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			extra[path] = string(src)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	found, err := findUnused(l.Fset(), pkgs, extra)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) == 0 {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d identifiers under internal/ have no caller outside their own package's tests:\n", len(found))
	for _, f := range found {
		rel, _ := filepath.Rel(l.ModuleRoot, f.pos.Filename)
		fmt.Fprintf(&b, "\t%s:%d %s\n", filepath.ToSlash(rel), f.pos.Line, f.name)
	}
	b.WriteString("Delete each one, or keep it with a directive on its line or the line above:\n" +
		"\t" + keepDirective + " <reason> <why>\nwhere <reason> is one of:\n")
	for _, k := range []string{"reference", "fake", "api", "course"} {
		fmt.Fprintf(&b, "\t%-9s %s\n", k, keepReasons[k])
	}
	t.Error(b.String())
}

// TestFindUnusedFixtures runs the check over in-memory packages whose
// every declaration states whether it must be reported.
func TestFindUnusedFixtures(t *testing.T) {
	l, err := loader.New(".")
	if err != nil {
		t.Fatal(err)
	}
	lib, err := l.CheckSource("parc751/internal/unusedfix/lib", map[string]string{
		"internal/unusedfix/lib/lib.go": `package lib

func Unused() {}

func UsedByOwnTest() {}

func UsedByOtherTest() {}

type Box[T any] struct{ v T }

func NewBox[T any](v T) *Box[T] { return &Box[T]{v: v} }

func (b *Box[T]) Get() T { return b.v }

func (b *Box[T]) Put(v T) { b.v = v }

func (b *Box[T]) Peek() T { return b.v }

type Peeker[T any] interface{ Peek() T }

type Sized[T any] interface {
	Len() int
	Cap() T
}

type Slab struct{}

func (Slab) Len() int { return 0 }

func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

type Namer interface{ Name() string }

type Orphan struct{}

func (Orphan) Name() string { return "orphan" }

//parcvet:ignore unused reference the oracle a test compares against
func KeptWithReason() {}

//parcvet:ignore unused
func KeptWithoutReason() {}

//parcvet:ignore unused because it might be handy
func KeptWithUnknownReason() {}
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	user, err := l.CheckSource("parc751/internal/unusedfix/user", map[string]string{
		"internal/unusedfix/user/user.go": `package user

import "parc751/internal/unusedfix/lib"

func Use() int { return lib.NewBox(1).Get() }

func Describe(n lib.Namer) string { return n.Name() }

func Size(s lib.Sized[int]) int { return s.Len() }

func First(p lib.Peeker[int]) int { return p.Peek() }

func NewSlab() lib.Slab { return lib.Slab{} }
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	extra := map[string]string{
		"internal/unusedfix/lib/lib_test.go": `package lib

import "testing"

func TestOwn(t *testing.T) { UsedByOwnTest() }
`,
		"internal/unusedfix/lib/ext_test.go": `package lib_test

import (
	"testing"

	"parc751/internal/unusedfix/lib"
)

func TestExt(t *testing.T) { lib.UsedByOwnTest(); lib.NewBox(1).Put(2) }
`,
		"internal/unusedfix/other/other_test.go": `package other

import (
	"testing"

	u "parc751/internal/unusedfix/user"
	"parc751/internal/unusedfix/lib"
)

func TestOther(t *testing.T) {
	lib.UsedByOtherTest(); u.Use(); u.Describe(nil); u.Size(nil); u.First(nil); u.NewSlab()
}
`,
	}
	found, err := findUnused(l.Fset(), []*loader.Package{lib, user}, extra)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range found {
		got = append(got, f.name)
	}
	// Box.Put is mentioned only by a test in its own directory; Orphan is
	// referenced only by its own method, and Recursive only by itself.
	// Box.Peek is exempt because *Box[T] implements Peeker[T]; Slab.Len is
	// not, because Slab lacks Sized's Cap although Sized declares Len (and
	// the generic Sized cannot be instantiated from Slab's no type
	// arguments).
	want := []string{"Unused", "UsedByOwnTest", "Box.Put", "Slab.Len", "Recursive", "Orphan",
		"KeptWithoutReason", "KeptWithUnknownReason"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("reported %v\nwant     %v", got, want)
	}
}
