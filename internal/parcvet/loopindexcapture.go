package parcvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"go/version"

	"parc751/internal/parcvet/analysis"
	"parc751/internal/report"
)

// LoopIndexCaptureAnalyzer flags the classic stale-loop-variable capture:
// a closure launched asynchronously (go statement, ptask creator, pool
// submit) from inside a loop that reads a variable every iteration
// shares. A variable declared outside the loop and assigned by its
// header is shared in every Go version; one declared in the header
// (`for i :=`, `for _, x := range`) is shared only before Go 1.22, so it
// is reported only in files whose language version is older.
var LoopIndexCaptureAnalyzer = &analysis.Analyzer{
	Name: "loopindexcapture",
	Doc: `report async closures capturing a loop variable every iteration shares

A function literal handed to a go statement inside a parallel-construct
body, or to a task launcher (ptask.Run and friends, Pool.Submit) anywhere,
outlives the loop iteration that created it. Capturing a shared loop
variable in such a closure is the textbook stale-index bug: by the time
the task runs, the variable holds a later iteration's value. That holds
in every Go version for a variable declared outside the loop, and before
Go 1.22 for one declared in the loop header, so header variables are
reported only in files older than go1.22, and as warnings; a variable
declared outside the loop is an error. Pass the value to the task as a
parameter.`,
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
		// Shared loop variables of loops enclosing the launch site.
		file := stack[0].(*ast.File)
		perIteration := version.Compare(info.FileVersions[file], "go1.22") >= 0
		loops := enclosingLoopVars(info, stack, perIteration)
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
			if outside, ok := loops[obj]; ok {
				reported[obj] = true
				// Declared outside the loop, it is stale in every Go
				// version: a real bug, not the pre-go1.22 lesson.
				sev := report.Warning
				if outside {
					sev = report.Error
				}
				pass.Report(analysis.Diagnostic{Pos: id.Pos(), Severity: sev, HasSeverity: true, Message: fmt.Sprintf(
					"closure %s captures loop variable %s, which every iteration shares: the task may run after the loop advances it and observe a stale value; pass the value to the task as a parameter",
					why, id.Name)})
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
	if c, s, ok := funcLitSlot(info, stack); ok && s.role == taskBody {
		return true, "passed to " + c.String()
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
// stack is a worksharing, region or task body.
func insideParallelConstruct(info *types.Info, stack []ast.Node) bool {
	for i, n := range stack {
		if _, ok := n.(*ast.FuncLit); !ok {
			continue
		}
		if _, s, ok := funcLitSlot(info, stack[:i+1]); ok && s.role.parallel() {
			return true
		}
	}
	return false
}

// enclosingLoopVars collects the variables assigned by the header of
// every for/range statement on the stack below the innermost enclosing
// function boundary (a loop outside the enclosing closure cannot
// interleave with it), each mapped to whether it is declared outside its
// loop. Such a variable — the `var i int; for i = 0; …` form — is shared
// by every iteration in any Go version; one the header declares is
// skipped when perIteration says the file's Go version gives each
// iteration its own.
func enclosingLoopVars(info *types.Info, stack []ast.Node, perIteration bool) map[types.Object]bool {
	out := map[types.Object]bool{}
	// Walk outward from the literal's parent; stop at the first function
	// boundary (loops beyond it run on a different activation record).
	for i := len(stack) - 2; i >= 0; i-- {
		var tok token.Token
		var vars []ast.Expr
		switch n := stack[i].(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			return out
		case *ast.ForStmt:
			if init, ok := n.Init.(*ast.AssignStmt); ok {
				tok, vars = init.Tok, init.Lhs
			}
		case *ast.RangeStmt:
			tok, vars = n.Tok, []ast.Expr{n.Key, n.Value}
		}
		if perIteration && tok == token.DEFINE {
			continue
		}
		for _, e := range vars {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				if obj := info.ObjectOf(id); obj != nil {
					out[obj] = tok != token.DEFINE
				}
			}
		}
	}
	return out
}
