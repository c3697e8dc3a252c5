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
	"go/ast"
	"go/types"

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

// is reports whether c is the given package-level function.
func (c callee) is(pkg, name string) bool {
	return c.pkg == pkg && c.recv == "" && c.name == name
}

// isMethod reports whether c is the given method.
func (c callee) isMethod(pkg, recv, name string) bool {
	return c.pkg == pkg && c.recv == recv && c.name == name
}

// funcLitArg inspects the stack ending at a *ast.FuncLit: if the literal
// is a direct argument of a call to a declared function/method, it
// returns that callee and the argument index.
func funcLitArg(info *types.Info, stack []ast.Node) (callee, int, bool) {
	if len(stack) < 2 {
		return callee{}, 0, false
	}
	lit := stack[len(stack)-1]
	call, ok := stack[len(stack)-2].(*ast.CallExpr)
	if !ok {
		return callee{}, 0, false
	}
	c, ok := calleeOf(info, call)
	if !ok {
		return callee{}, 0, false
	}
	for i, arg := range call.Args {
		if ast.Unparen(arg) == lit {
			return c, i, true
		}
	}
	return callee{}, 0, false
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

// isWorksharingBody reports whether the callee/arg pair is the body
// closure of a Pyjama worksharing construct or parallel region.
func isWorksharingBody(c callee, arg int) bool {
	switch {
	case c.isMethod(pkgPyjama, "TC", "For") && arg == 2,
		c.isMethod(pkgPyjama, "TC", "ForNoWait") && arg == 2,
		c.isMethod(pkgPyjama, "TC", "ForChunked") && arg == 2,
		c.isMethod(pkgPyjama, "TC", "For2D") && arg == 3,
		c.isMethod(pkgPyjama, "TC", "For2DNoWait") && arg == 3,
		c.isMethod(pkgPyjama, "TC", "ForRange") && arg == 3,
		c.is(pkgPyjama, "ParallelFor") && arg == 3,
		c.is(pkgPyjama, "ForReduce") && arg == 4,
		c.is(pkgPyjama, "ParallelForReduce") && arg == 4:
		return true
	}
	return false
}

// isRegionBody reports whether the callee/arg pair is a parallel region
// body (every team member runs it).
func isRegionBody(c callee, arg int) bool {
	switch {
	case c.is(pkgPyjama, "Parallel") && arg == 1,
		c.is(pkgPyjama, "ParallelWithStats") && arg == 1,
		c.is(pkgPyjama, "Async") && arg == 2:
		return true
	}
	return false
}

// isTaskBody reports whether the callee/arg pair is a closure that a task
// or pool runs asynchronously.
func isTaskBody(c callee, arg int) bool {
	switch {
	case c.is(pkgPtask, "Run") && arg == 1,
		c.is(pkgPtask, "RunWith") && arg == 2,
		c.is(pkgPtask, "RunAfter") && arg == 2,
		c.is(pkgPtask, "RunMulti") && arg == 2,
		c.is(pkgPtask, "Invoke") && arg == 1,
		c.is(pkgPtask, "Then") && arg == 1,
		c.isMethod(pkgCore, "Pool", "Submit") && arg == 0,
		c.isMethod(pkgAndroid, "SerialExecutor", "Submit") && arg == 0:
		return true
	}
	return false
}
