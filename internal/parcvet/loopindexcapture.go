package parcvet

import (
	"go/ast"
	"go/types"
	"slices"

	"parc751/internal/parcvet/analysis"
	"parc751/internal/report"
)

// LoopIndexCaptureAnalyzer flags the classic stale-loop-variable capture:
// a closure launched asynchronously (go statement, ptask creator, pool
// submit) from inside a loop that reads the loop variable instead of a
// per-iteration copy. Go 1.22 made `for i :=` per-iteration, but the
// paper's labs still teach the pattern (the course's Java side has no such
// rescue, and `i` declared *outside* the loop is stale in any Go version),
// so the analyzer reports it as a teaching warning.
var LoopIndexCaptureAnalyzer = &analysis.Analyzer{
	Name: "loopindexcapture",
	Doc: `report async closures capturing an enclosing loop variable

A function literal handed to a go statement inside a parallel-construct
body, or to a task launcher (ptask.Run and friends, Pool.Submit) anywhere,
outlives the loop iteration that created it. Capturing the loop variable in
such a closure is the textbook stale-index bug: by the time the task runs,
the variable holds a later iteration's value (always, for variables
declared outside the loop; pre-Go-1.22 semantics for the classic form).
Shadow it with a per-iteration copy (i := i) or pass it as a parameter.`,
	Severity: report.Warning,
	Run:      runLoopIndexCapture,
}

func runLoopIndexCapture(pass *analysis.Pass) error {
	info := pass.TypesInfo
	pass.Inspect.WithStack([]ast.Node{(*ast.FuncLit)(nil)}, func(n ast.Node, stack []ast.Node) bool {
		lit := n.(*ast.FuncLit)

		launch, why := asyncLaunch(info, stack)
		if !launch {
			return true
		}
		// Loop variables of loops enclosing the launch site.
		loops := enclosingLoopVars(info, stack, lit)
		if len(loops) == 0 {
			return true
		}

		reported := map[types.Object]bool{}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if obj == nil || reported[obj] {
				return true
			}
			if slices.Contains(loops, obj) {
				reported[obj] = true
				pass.Reportf(id.Pos(), "closure %s captures loop variable %s: the task may run after the iteration advances and observe a stale index; shadow it with a per-iteration copy or pass it as a parameter",
					why, id.Name)
			}
			return true
		})
		return true
	})
	return nil
}

// asyncLaunch reports whether the function literal at the top of the
// stack is executed asynchronously with respect to the launching loop:
// the operand of a go statement inside a parallel-construct body, or the
// body argument of a task creator / pool submit anywhere. (A bare go
// statement in sequential code is gopls/vet territory; parcvet cares
// about the course's constructs.)
func asyncLaunch(info *types.Info, stack []ast.Node) (bool, string) {
	if c, arg, ok := funcLitArg(info, stack); ok {
		if isTaskBody(c, arg) {
			return true, "passed to " + c.String()
		}
		return false, ""
	}
	if len(stack) >= 3 {
		if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && call.Fun == stack[len(stack)-1] {
			if _, ok := stack[len(stack)-3].(*ast.GoStmt); ok && insideParallelConstruct(info, stack[:len(stack)-3]) {
				return true, "launched by a go statement in a parallel-construct body"
			}
		}
	}
	return false, ""
}

// insideParallelConstruct reports whether any function literal on the
// stack is a worksharing / region / task / sections body.
func insideParallelConstruct(info *types.Info, stack []ast.Node) bool {
	for i, n := range stack {
		if _, ok := n.(*ast.FuncLit); !ok {
			continue
		}
		if c, arg, ok := funcLitArg(info, stack[:i+1]); ok {
			if isWorksharingBody(c, arg) || isRegionBody(c, arg) || isTaskBody(c, arg) ||
				c.isMethod(pkgPyjama, "TC", "Sections") {
				return true
			}
		}
	}
	return false
}

// enclosingLoopVars collects the loop variables of every for/range
// statement on the stack below the innermost enclosing function boundary
// (a loop outside the enclosing closure cannot interleave with it), plus
// loop-scoped variables declared outside the loop header but assigned by
// it — the `var i int; for i = 0; …` form, which is stale in every Go
// version.
func enclosingLoopVars(info *types.Info, stack []ast.Node, lit *ast.FuncLit) []types.Object {
	var out []types.Object
	// Walk outward; stop at the first function boundary other than lit
	// itself (loops beyond it run on a different activation record).
	for i := len(stack) - 2; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			return out
		case *ast.ForStmt:
			if init, ok := n.Init.(*ast.AssignStmt); ok {
				for _, lhs := range init.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					if obj := info.ObjectOf(id); obj != nil {
						out = append(out, obj)
					}
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{n.Key, n.Value} {
				id, ok := e.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if obj := info.ObjectOf(id); obj != nil {
					out = append(out, obj)
				}
			}
		}
	}
	return out
}
