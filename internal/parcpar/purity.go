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
// (make and new allocate fresh private storage). append is pure as a
// call, but it may write into its first argument's backing array, so
// bodyPure checks that argument as a write target.
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
	// why keeps the reason a memoized impure function was rejected, so
	// every caller reports it, whichever asked first.
	why  map[*types.Func]string
	busy map[*types.Func]bool
	// fieldReads is the transitive set of struct field names a pure
	// function reads (selector names, coarsely keyed by name alone — the
	// safe direction is overcounting). unknownReads marks functions whose
	// read set could not be closed (recursion); readsField answers true
	// for those.
	fieldReads   map[*types.Func]map[string]bool
	unknownReads map[*types.Func]bool
	// writers memoizes sliceWriter: the parameter indexes a slice writer
	// writes, or nil for a function that is not one.
	writers map[*types.Func][]int
}

func newPurity(l *loader.Loader, pkg *loader.Package) *purityChecker {
	return &purityChecker{
		l: l, pkg: pkg,
		memo: map[*types.Func]bool{}, why: map[*types.Func]string{}, busy: map[*types.Func]bool{},
		fieldReads:   map[*types.Func]map[string]bool{},
		unknownReads: map[*types.Func]bool{},
		writers:      map[*types.Func][]int{},
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
// stdlib function, or a module function whose body passes isPure. A call
// to a slice writer passes too: checkWrites has already placed the
// arguments it writes.
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
			if _, writer := a.purity.sliceWriterCall(a.info, call); !writer {
				reason = why
			}
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
		return false, p.why[fn]
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
		p.why[fn] = fmt.Sprintf("no body found for %s", fn.FullName())
		return false, p.why[fn]
	}
	p.busy[fn] = true
	ok, why := p.bodyPure(fn, decl, info, nil)
	delete(p.busy, fn)
	p.memo[fn] = ok
	if !ok {
		p.why[fn] = fmt.Sprintf("call to %s is not provably pure (%s)", fn.FullName(), why)
		return false, p.why[fn]
	}
	return true, ""
}

// bodyPure checks a callee body: writes only to its own locals (receiver
// and parameters are read-only — writing *through* them reaches the
// caller's shared state, and so does appending to them), no concurrency
// constructs, pure callees only.
// With slots non-nil it also accepts element writes `p[k] = …` on a
// slice parameter p and records p in slots (see sliceWriter).
func (p *purityChecker) bodyPure(fn *types.Func, decl *ast.FuncDecl, info *types.Info, slots map[*types.Var]bool) (bool, string) {
	var reason string
	fail := func(r string) { reason = r }
	reads := map[string]bool{}
	readsClosed := true
	// writesThrough checks a write into the memory root reaches: a root
	// declared outside the body is caller-visible, and a local
	// pointer-shaped root may alias a parameter (e.g. a subslice), so its
	// initializer must allocate (make/new/literal).
	writesThrough := func(root *ast.Ident) {
		obj := info.ObjectOf(root)
		if !DeclaredWithin(obj, decl.Body) {
			fail("writes through " + root.Name)
			return
		}
		if v, isVar := obj.(*types.Var); isVar && pointerShaped(v.Type()) && !p.freshLocal(decl, info, obj) {
			fail("writes through local alias " + root.Name)
		}
	}
	checkTarget := func(lhs ast.Expr) {
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
			if v := sliceParam(fn, obj); slots != nil && v != nil {
				if ix, ok := lhs.(*ast.IndexExpr); ok && ast.Unparen(ix.X) == root {
					slots[v] = true
					return
				}
			}
			writesThrough(root)
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
			if dst := AppendDst(info, n); dst != nil && !freshValue(info, dst) {
				if root := RootIdent(dst); root != nil {
					writesThrough(root)
				} else {
					fail("appends to a compound expression")
				}
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

// sliceWriter reports whether fn is a slice writer, and which parameters
// it writes: a module function that is pure except for element writes
// `p[k] = …` to some of its slice parameters, each of which it only
// indexes, ranges over and passes to len or cap. Such a parameter is
// never resliced, reassigned, appended to or handed on, so fn writes
// inside the slice its caller passed and nowhere else; a loop that
// passes it this iteration's row writes only that row. Pure functions
// are not slice writers.
func (p *purityChecker) sliceWriter(fn *types.Func) ([]int, bool) {
	if w, done := p.writers[fn]; done {
		return w, w != nil
	}
	p.writers[fn] = nil
	if p.memo[fn] || p.busy[fn] || fn.Pkg() == nil {
		return nil, false
	}
	path := fn.Pkg().Path()
	if path != p.pkg.Path && path != p.l.ModulePath && !strings.HasPrefix(path, p.l.ModulePath+"/") {
		return nil, false
	}
	decl, info := p.findDecl(fn)
	if decl == nil || decl.Body == nil {
		return nil, false
	}
	slots := map[*types.Var]bool{}
	p.busy[fn] = true
	ok, _ := p.bodyPure(fn, decl, info, slots)
	delete(p.busy, fn)
	if !ok || len(slots) == 0 {
		return nil, false // impure, or pure: either way not a slice writer
	}
	sig := fn.Type().(*types.Signature)
	var params []int
	for i := 0; i < sig.Params().Len(); i++ {
		v := sig.Params().At(i)
		if !slots[v] {
			continue
		}
		if sig.Variadic() && i == sig.Params().Len()-1 || !confinedSlice(decl.Body, info, v) {
			return nil, false
		}
		params = append(params, i)
	}
	p.writers[fn] = params
	return params, true
}

// sliceWriterCall is sliceWriter for a call: the written parameters are
// indexes into call.Args. A method expression (T.m(x, …)) shifts the
// arguments by the receiver, so it is not matched.
func (p *purityChecker) sliceWriterCall(info *types.Info, call *ast.CallExpr) ([]int, bool) {
	fn := staticCallee(info, call)
	if fn == nil {
		return nil, false
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodExpr {
			return nil, false
		}
	}
	return p.sliceWriter(fn)
}

// sliceParam returns obj as a slice-typed parameter of fn, or nil.
func sliceParam(fn *types.Func, obj types.Object) *types.Var {
	v, ok := obj.(*types.Var)
	if !ok {
		return nil
	}
	if _, isSlice := v.Type().Underlying().(*types.Slice); !isSlice {
		return nil
	}
	params := fn.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if params.At(i) == v {
			return v
		}
	}
	return nil
}

// confinedSlice reports whether every use of v in body indexes it,
// ranges over it, or is the argument of len or cap.
func confinedSlice(body *ast.BlockStmt, info *types.Info, v *types.Var) bool {
	allowed := map[*ast.Ident]bool{}
	allow := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			allowed[id] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IndexExpr:
			allow(n.X)
		case *ast.RangeStmt:
			allow(n.X)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) == 1 {
				if b, isB := info.Uses[id].(*types.Builtin); isB && (b.Name() == "len" || b.Name() == "cap") {
					allow(n.Args[0])
				}
			}
		}
		return true
	})
	confined := true
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == v && !allowed[id] {
			confined = false
		}
		return confined
	})
	return confined
}

// AppendDst returns the slice a call to the builtin append may write
// into, with any reslicing stripped (xs in append(xs[:0], v)), or nil
// when call is not an append.
func AppendDst(info *types.Info, call *ast.CallExpr) ast.Expr {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	if b, isB := info.Uses[id].(*types.Builtin); !isB || b.Name() != "append" {
		return nil
	}
	dst := ast.Unparen(call.Args[0])
	for {
		s, ok := dst.(*ast.SliceExpr)
		if !ok {
			return dst
		}
		dst = ast.Unparen(s.X)
	}
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
			fresh = freshValue(info, as.Rhs[i])
		}
		return !seen
	})
	return seen && fresh
}

// freshValue reports whether e allocates fresh memory: a make or new
// call, or a composite literal.
func freshValue(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if fid, isID := e.Fun.(*ast.Ident); isID {
			if b, isB := info.Uses[fid].(*types.Builtin); isB && (b.Name() == "make" || b.Name() == "new") {
				return true
			}
		}
	case *ast.CompositeLit:
		return true
	}
	return false
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
