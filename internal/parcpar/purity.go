package parcpar

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"parc751/internal/parcvet/loader"
)

// pureStdlib is the conservative allowlist of stdlib callees, seeded the
// way parcvet's apimatch tables seed API knowledge: whole packages whose
// exported functions are value-pure, plus named functions from packages
// that mix pure and impure APIs. Anything not listed is assumed impure.
var pureStdlibPkgs = map[string]bool{
	"math":         true,
	"math/bits":    true,
	"math/cmplx":   true,
	"unicode":      true,
	"unicode/utf8": true,
}

var pureStdlibFuncs = map[string]bool{
	"strings.Compare": true, "strings.Contains": true, "strings.ContainsRune": true,
	"strings.Count": true, "strings.EqualFold": true, "strings.Fields": true,
	"strings.HasPrefix": true, "strings.HasSuffix": true, "strings.Index": true,
	"strings.IndexByte": true, "strings.IndexRune": true, "strings.Join": true,
	"strings.LastIndex": true, "strings.Repeat": true, "strings.Split": true,
	"strings.ToLower": true, "strings.ToUpper": true, "strings.TrimSpace": true,
	"strconv.Atoi": true, "strconv.FormatFloat": true, "strconv.FormatInt": true,
	"strconv.FormatUint": true, "strconv.Itoa": true, "strconv.ParseFloat": true,
	"strconv.ParseInt": true, "strconv.ParseUint": true, "strconv.Quote": true,
}

// pureBuiltins are the builtins with no side effects on shared state
// (append's result-placement is governed by the write analysis; make and
// new allocate fresh private storage).
var pureBuiltins = map[string]bool{
	"len": true, "cap": true, "min": true, "max": true,
	"real": true, "imag": true, "complex": true,
	"make": true, "new": true, "append": true,
}

// purityChecker decides, conservatively, whether a module function is
// pure enough to run concurrently: it writes only its own locals, uses
// no concurrency constructs, and calls only other pure functions. The
// judgment is memoized per *types.Func; recursion is handled
// coinductively (an in-progress callee is assumed pure — any violation
// in the cycle still marks every participant impure on its own walk).
type purityChecker struct {
	l    *loader.Loader
	pkg  *loader.Package
	memo map[*types.Func]bool
	busy map[*types.Func]bool
	// fieldReads is the transitive set of struct field names a pure
	// function reads (selector names, coarsely keyed by name alone — the
	// safe direction is overcounting). unknownReads marks functions whose
	// read set could not be closed (recursion); readsField answers true
	// for those.
	fieldReads   map[*types.Func]map[string]bool
	unknownReads map[*types.Func]bool
}

func newPurity(l *loader.Loader, pkg *loader.Package) *purityChecker {
	return &purityChecker{
		l: l, pkg: pkg,
		memo: map[*types.Func]bool{}, busy: map[*types.Func]bool{},
		fieldReads:   map[*types.Func]map[string]bool{},
		unknownReads: map[*types.Func]bool{},
	}
}

// readsField reports whether fn (transitively) may read the named
// struct field. Unanalyzed or unclosed functions answer true.
func (p *purityChecker) readsField(fn *types.Func, field string) bool {
	reads, ok := p.fieldReads[fn]
	if !ok || p.unknownReads[fn] {
		return true
	}
	return reads[field]
}

// checkCalls verifies every call in the loop body resolves to a provably
// pure callee: a type conversion, an allowlisted builtin, an allowlisted
// stdlib function, or a module function whose body passes isPure.
func (a *analyzer) checkCalls(sh *loopShape) (string, bool) {
	var reason string
	ast.Inspect(sh.body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if ok, why := a.purity.callPure(a.info, call); !ok {
			reason = why
		}
		return reason == ""
	})
	return reason, reason != ""
}

// callPure judges one call expression against info (the package whose
// AST the call belongs to).
func (p *purityChecker) callPure(info *types.Info, call *ast.CallExpr) (bool, string) {
	// Type conversions are value-pure.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return true, ""
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Builtin:
			if pureBuiltins[obj.Name()] {
				return true, ""
			}
			return false, fmt.Sprintf("call to builtin %q has shared-state effects", obj.Name())
		case *types.Func:
			return p.funcPure(obj)
		case *types.Var:
			return false, fmt.Sprintf("call through function variable %q", fun.Name)
		}
		if tv, ok := info.Types[fun]; ok && tv.IsType() {
			return true, ""
		}
		return false, fmt.Sprintf("call to unresolved %q", fun.Name)
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return p.funcPure(fn)
		}
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			return true, ""
		}
		return false, fmt.Sprintf("call to unresolved %q", fun.Sel.Name)
	default:
		return false, "call through a computed function value"
	}
}

// funcPure judges a resolved callee.
func (p *purityChecker) funcPure(fn *types.Func) (bool, string) {
	if done, ok := p.memo[fn]; ok {
		if done {
			return true, ""
		}
		return false, fmt.Sprintf("call to %s is not provably pure", fn.FullName())
	}
	if p.busy[fn] {
		return true, "" // coinductive: judge the cycle by its other statements
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return false, fmt.Sprintf("call to %s is not provably pure", fn.Name())
	}
	path := pkg.Path()
	if pureStdlibPkgs[path] || pureStdlibFuncs[path+"."+fn.Name()] {
		p.memo[fn] = true
		p.fieldReads[fn] = map[string]bool{} // value-pure: no field reads
		return true, ""
	}
	// Module functions and functions of the package under analysis
	// (which may live outside the module path, e.g. fixture packages)
	// are analyzed by body; everything else is out of scope.
	if path != p.pkg.Path && path != p.l.ModulePath && !strings.HasPrefix(path, p.l.ModulePath+"/") {
		return false, fmt.Sprintf("call to %s is outside the purity allowlist", fn.FullName())
	}
	decl, info := p.findDecl(fn)
	if decl == nil || decl.Body == nil {
		p.memo[fn] = false
		return false, fmt.Sprintf("no body found for %s", fn.FullName())
	}
	p.busy[fn] = true
	ok, why := p.bodyPure(fn, decl, info)
	delete(p.busy, fn)
	p.memo[fn] = ok
	if !ok {
		return false, fmt.Sprintf("call to %s is not provably pure (%s)", fn.FullName(), why)
	}
	return true, ""
}

// bodyPure checks a callee body: writes only to its own locals (receiver
// and parameters are read-only — writing *through* them reaches the
// caller's shared state), no concurrency constructs, pure callees only.
func (p *purityChecker) bodyPure(fn *types.Func, decl *ast.FuncDecl, info *types.Info) (bool, string) {
	var reason string
	fail := func(r string) { reason = r }
	reads := map[string]bool{}
	readsClosed := true
	var checkTarget func(lhs ast.Expr)
	checkTarget = func(lhs ast.Expr) {
		switch lhs := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if lhs.Name == "_" {
				return
			}
			obj := info.ObjectOf(lhs)
			if _, isPkgVar := obj.(*types.Var); isPkgVar && !DeclaredWithin(obj, decl.Body) {
				// Reassigning a parameter's own copy is local (a param or
				// receiver lives in the signature, outside Body's span);
				// writing a package variable is not. Distinguish by scope
				// parent.
				if v := obj.(*types.Var); v.Parent() == v.Pkg().Scope() {
					fail("writes package variable " + v.Name())
					return
				}
			}
		case *ast.IndexExpr, *ast.StarExpr, *ast.SelectorExpr:
			// A write through any chain rooted outside the body reaches
			// caller-visible memory.
			root := RootIdent(lhs)
			if root == nil {
				fail("writes through a compound expression")
				return
			}
			obj := info.ObjectOf(root)
			if !DeclaredWithin(obj, decl.Body) {
				fail("writes through " + root.Name)
				return
			}
			// Local pointer-shaped vars may alias params (e.g. a subslice);
			// trace the initializer conservatively: any local slice/pointer
			// written through must come from make/new/literal.
			if v, isVar := obj.(*types.Var); isVar && pointerShaped(v.Type()) {
				if !p.freshLocal(decl, info, obj) {
					fail("writes through local alias " + root.Name)
				}
			}
		default:
			fail("unmodelled write target")
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkTarget(lhs)
			}
		case *ast.IncDecStmt:
			checkTarget(n.X)
		case *ast.GoStmt:
			fail("starts a goroutine")
		case *ast.DeferStmt:
			fail("defers")
		case *ast.SendStmt, *ast.SelectStmt:
			fail("channel operation")
		case *ast.FuncLit:
			fail("contains a function literal")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				fail("channel receive")
			}
		case *ast.SelectorExpr:
			// Coarse field-read tracking: every selector name counts,
			// including package qualifiers — overcounting only ever turns
			// an accept into a reject, never the reverse.
			reads[n.Sel.Name] = true
		case *ast.CallExpr:
			if ok, _ := p.callPure(info, n); !ok {
				fail("calls an impure function")
				return false
			}
			if callee := staticCallee(info, n); callee != nil {
				if sub, ok := p.fieldReads[callee]; ok && !p.unknownReads[callee] {
					for f := range sub {
						reads[f] = true
					}
				} else {
					readsClosed = false // in-progress recursion: set unknowable
				}
			} else if tv, ok := info.Types[n.Fun]; !ok || !tv.IsType() {
				readsClosed = false // builtins resolve here too; be lenient
				if id, isID := ast.Unparen(n.Fun).(*ast.Ident); isID {
					if _, isB := info.Uses[id].(*types.Builtin); isB {
						readsClosed = true
					}
				}
			}
		case *ast.ExprStmt:
			if ce, ok := n.X.(*ast.CallExpr); ok {
				if id, isID := ce.Fun.(*ast.Ident); isID {
					if b, isB := info.Uses[id].(*types.Builtin); isB && b.Name() == "panic" {
						fail("may panic")
					}
				}
			}
		}
		return reason == ""
	})
	if reason != "" {
		return false, reason
	}
	p.fieldReads[fn] = reads
	p.unknownReads[fn] = !readsClosed
	return true, ""
}

// staticCallee resolves a call's target as a declared function, or nil
// for builtins, conversions, and calls through function values.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// freshLocal reports whether obj's defining initializer allocates fresh
// memory (make/new/composite literal) rather than aliasing a parameter.
func (p *purityChecker) freshLocal(decl *ast.FuncDecl, info *types.Info, obj types.Object) bool {
	fresh := false
	seen := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || seen {
			return !seen
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || info.Defs[id] != obj || len(as.Rhs) != len(as.Lhs) {
				continue
			}
			seen = true
			switch rhs := ast.Unparen(as.Rhs[i]).(type) {
			case *ast.CallExpr:
				if fid, isID := rhs.Fun.(*ast.Ident); isID {
					if b, isB := info.Uses[fid].(*types.Builtin); isB && (b.Name() == "make" || b.Name() == "new") {
						fresh = true
					}
				}
			case *ast.CompositeLit:
				fresh = true
			}
		}
		return !seen
	})
	return seen && fresh
}

// findDecl locates the FuncDecl and matching types.Info for a module
// function — in the package under analysis, or in any other module
// package through the loader's cache (object identities are shared
// because every import resolves through the same typechecking universe).
func (p *purityChecker) findDecl(fn *types.Func) (*ast.FuncDecl, *types.Info) {
	find := func(pkg *loader.Package) *ast.FuncDecl {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && pkg.Info.Defs[fd.Name] == fn {
					return fd
				}
			}
		}
		return nil
	}
	if fn.Pkg().Path() == p.pkg.Path {
		if d := find(p.pkg); d != nil {
			return d, p.pkg.Info
		}
		return nil, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(fn.Pkg().Path(), p.l.ModulePath), "/")
	pkg, err := p.l.LoadDir(filepath.Join(p.l.ModuleRoot, filepath.FromSlash(rel)), fn.Pkg().Path())
	if err != nil {
		return nil, nil
	}
	if d := find(pkg); d != nil {
		return d, pkg.Info
	}
	return nil, nil
}

// RootIdent finds the root identifier of an lvalue chain (x in x.f[i],
// *x or (x)[j]), or nil.
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
