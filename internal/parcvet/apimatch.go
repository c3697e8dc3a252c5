// Package parcvet is a suite of static analyzers that understand this
// repository's own parallel-programming APIs — Parallel Task (ptask),
// Pyjama worksharing, the core runtime, and the GUI event loop — and flag
// the concurrency misuses the reproduced paper's labs teach students to
// avoid (§III, §IV-B, §IV-C): blocking the GUI thread, racing on captured
// variables inside worksharing bodies, dropping futures, divergent
// barriers, impure reductions, and stale loop-index capture.
//
// The analyzers are written against internal/parcvet/analysis, a small
// stdlib-only mirror of golang.org/x/tools/go/analysis, and run through
// cmd/parcvet, a multichecker-style driver. Findings share the course
// report vocabulary (internal/report) with parcaudit.
package parcvet

import (
	"fmt"
	"go/ast"
	"go/types"
	"path"

	"parc751/internal/parcvet/analysis"
)

// Import paths of the APIs the analyzers understand.
const (
	pkgCore      = "parc751/internal/core"
	pkgPtask     = "parc751/internal/ptask"
	pkgPyjama    = "parc751/internal/pyjama"
	pkgEventloop = "parc751/internal/eventloop"
	pkgAndroid   = "parc751/internal/android"
	pkgReduction = "parc751/internal/reduction"
)

// callee identifies what a call expression invokes: the defining package
// path, the receiver's named type ("" for package-level functions), and
// the function name.
type callee struct {
	pkg  string
	recv string
	name string
}

// calleeOf resolves a call through the type info; ok is false for calls
// to builtins, function-typed variables, and anything else that is not a
// declared function or method.
func calleeOf(info *types.Info, call *ast.CallExpr) (callee, bool) {
	fun := ast.Unparen(call.Fun)
	// Strip explicit generic instantiation: ptask.Run[int](…).
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		fun = idx.X
	case *ast.IndexListExpr:
		fun = idx.X
	}
	var obj types.Object
	switch fn := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fn]
	case *ast.SelectorExpr:
		obj = info.Uses[fn.Sel]
	default:
		return callee{}, false
	}
	f, ok := obj.(*types.Func)
	if ok && f.Pkg() != nil {
		c := callee{pkg: f.Pkg().Path(), name: f.Name()}
		if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
			c.recv = namedTypeName(sig.Recv().Type())
		}
		return c, true
	}
	return callee{}, false
}

// namedTypeName unwraps pointers and generic instantiation down to the
// receiver type's declared name.
func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// String renders the callee for diagnostics.
func (c callee) String() string {
	if c.recv != "" {
		return fmt.Sprintf("(%s.%s).%s", path.Base(c.pkg), c.recv, c.name)
	}
	return path.Base(c.pkg) + "." + c.name
}

// funcLitSlot inspects the stack ending at a *ast.FuncLit: if the
// literal is an argument of a call that the catalogue gives a slot for
// that argument, it returns the callee and the slot.
func funcLitSlot(info *types.Info, stack []ast.Node) (callee, slot, bool) {
	if len(stack) < 2 {
		return callee{}, slot{}, false
	}
	lit := stack[len(stack)-1]
	call, ok := stack[len(stack)-2].(*ast.CallExpr)
	if !ok {
		return callee{}, slot{}, false
	}
	c, ok := calleeOf(info, call)
	if !ok {
		return callee{}, slot{}, false
	}
	for i, arg := range call.Args {
		if ast.Unparen(arg) == lit {
			s, ok := slotOf(c, i)
			return c, s, ok
		}
	}
	return callee{}, slot{}, false
}

// typeOf returns the static type of e, or nil.
func typeOf(pass *analysis.Pass, e ast.Expr) types.Type {
	return pass.TypesInfo.Types[e].Type
}

// isAsyncTaskType reports whether the composite literal builds an
// android.AsyncTask (possibly instantiated).
func isAsyncTaskType(pass *analysis.Pass, comp *ast.CompositeLit) bool {
	t := typeOf(pass, comp)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "AsyncTask" && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == pkgAndroid
}
