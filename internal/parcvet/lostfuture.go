package parcvet

import (
	"go/ast"
	"go/token"
	"go/types"

	"parc751/internal/parcvet/analysis"
	"parc751/internal/parcvet/cfg"
	"parc751/internal/report"
)

// LostFutureAnalyzer flags ptask futures whose result is never awaited.
// The paper's Parallel Task lessons (§IV-B) hinge on the future being the
// carrier of both the result and the error: a dropped future silently
// swallows failures (and any panic the runtime converted to an error).
// The check is path-sensitive via the control-flow graph: a task that is
// awaited on the happy path but leaked on an early return is still
// reported.
var LostFutureAnalyzer = &analysis.Analyzer{
	Name: "lostfuture",
	Doc: `report ptask futures that are never awaited

A value returned by ptask.Run/RunWith/RunAfter/RunMulti/Invoke/Then
carries the task's result and error. Discarding it, or returning from the
function on some path without consuming it (Result, Results, Done,
Notify, Cancel, use as a dependence, or passing it on), loses the error —
and the lab's deliberately-failing tasks go unnoticed. Futures that escape the function
(returned, stored, captured by a closure) are assumed consumed elsewhere.`,
	Severity: report.Warning,
	Run:      runLostFuture,
}

// futureCreators produce a value that must eventually be consumed.
func isFutureCreator(c callee) bool {
	switch {
	case c.is(pkgPtask, "Run"), c.is(pkgPtask, "RunWith"), c.is(pkgPtask, "RunAfter"),
		c.is(pkgPtask, "RunMulti"), c.is(pkgPtask, "Invoke"),
		c.is(pkgPtask, "Then"):
		return true
	}
	return false
}

// consumingMethods, called on a task/future value, count as awaiting it.
var consumingMethods = map[string]bool{
	"Result": true, "Results": true, "Get": true, "TryGet": true,
	"Done": true, "IsDone": true, "Notify": true, "NotifyEach": true,
	"Cancel": true, "Tasks": true,
}

func runLostFuture(pass *analysis.Pass) error {
	info := pass.TypesInfo
	// Graphs are built lazily, one per function body.
	graphs := map[*ast.BlockStmt]*cfg.Graph{}
	graphFor := func(body *ast.BlockStmt) *cfg.Graph {
		g, ok := graphs[body]
		if !ok {
			g = cfg.New(body)
			graphs[body] = g
		}
		return g
	}

	pass.Inspect.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, stack []ast.Node) bool {
		call := n.(*ast.CallExpr)
		c, ok := calleeOf(info, call)
		if !ok || !isFutureCreator(c) {
			return true
		}
		fnBody, createStmt := enclosingFunc(stack)
		if fnBody == nil || createStmt == nil {
			return true
		}
		switch parent := createStmt.(type) {
		case *ast.ExprStmt:
			if ast.Unparen(parent.X) == call {
				pass.Report(analysis.Diagnostic{
					Pos:         call.Pos(),
					Message:     "result of " + c.String() + " is discarded: the task's result and error are lost; assign it and await it (Result/Notify), or add it as a dependence",
					Severity:    report.Error,
					HasSeverity: true,
				})
			}
			return true
		case *ast.AssignStmt:
			v := assignedVar(info, parent, call)
			if v == nil {
				// `_ = ptask.Run(...)`: an explicit discard — report
				// unless the blank was deliberate enough to suppress.
				if blankAssign(parent, call) {
					pass.Report(analysis.Diagnostic{
						Pos:         call.Pos(),
						Message:     "result of " + c.String() + " is assigned to _: the task's result and error are lost",
						Severity:    report.Error,
						HasSeverity: true,
					})
				}
				return true
			}
			checkFutureVar(pass, graphFor(fnBody), fnBody, parent, call, c, v)
		}
		return true
	})
	return nil
}

// enclosingFunc walks the stack outward to the innermost function body
// and the innermost statement containing the node (the statement that
// owns the CFG node for simple statements).
func enclosingFunc(stack []ast.Node) (*ast.BlockStmt, ast.Stmt) {
	var stmt ast.Stmt
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncLit:
			return n.Body, stmt
		case *ast.FuncDecl:
			return n.Body, stmt
		case ast.Stmt:
			if stmt == nil {
				stmt = n
			}
		}
	}
	return nil, stmt
}

// assignedVar returns the variable the creator call is assigned to, or
// nil for blank/complex targets.
func assignedVar(info *types.Info, assign *ast.AssignStmt, call *ast.CallExpr) *types.Var {
	idx := -1
	for i, rhs := range assign.Rhs {
		if ast.Unparen(rhs) == call {
			idx = i
		}
	}
	if idx < 0 || len(assign.Lhs) != len(assign.Rhs) {
		return nil
	}
	id, ok := assign.Lhs[idx].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		v, _ := obj.(*types.Var)
		return v
	}
	if obj := info.Uses[id]; obj != nil {
		v, _ := obj.(*types.Var)
		return v
	}
	return nil
}

// blankAssign reports whether the call lands in a blank identifier.
func blankAssign(assign *ast.AssignStmt, call *ast.CallExpr) bool {
	for i, rhs := range assign.Rhs {
		if ast.Unparen(rhs) == call && i < len(assign.Lhs) {
			if id, ok := assign.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
				return true
			}
		}
	}
	return false
}

// checkFutureVar analyses the uses of v after its creating assignment.
func checkFutureVar(pass *analysis.Pass, g *cfg.Graph, fnBody *ast.BlockStmt, createStmt ast.Stmt, call *ast.CallExpr, c callee, v *types.Var) {
	info := pass.TypesInfo

	type use struct {
		id        *ast.Ident
		consuming bool
		escaping  bool
	}
	var uses []use
	capturedByClosure := false

	ast.Inspect(fnBody, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || info.Uses[id] != v {
			return true
		}
		uses = append(uses, use{id: id})
		return true
	})
	if len(uses) == 0 {
		pass.Reportf(call.Pos(), "task from %s is never awaited: its result and error are lost; call Result/Notify, pass it as a dependence, or Cancel it", c)
		return
	}

	// Classify each use: a consuming method call, or an escape (any other
	// use — argument, return, store, closure capture — is assumed to hand
	// responsibility elsewhere).
	idToUse := map[*ast.Ident]int{}
	for i, u := range uses {
		idToUse[u.id] = i
	}
	var classify func(n ast.Node, inClosure bool)
	classify = func(root ast.Node, inClosure bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && n != root {
				classify(lit.Body, true)
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
					if i, tracked := idToUse[id]; tracked && consumingMethods[sel.Sel.Name] {
						uses[i].consuming = true
						if inClosure {
							capturedByClosure = true
						}
					}
				}
			}
			return true
		})
	}
	classify(fnBody, false)
	for i, u := range uses {
		if !u.consuming {
			// Receiver position of a consuming call is handled above;
			// everything else — argument, return value, composite
			// literal, send, range, closure body — escapes.
			uses[i].escaping = true
			if insideClosure(fnBody, u.id, createStmt) {
				capturedByClosure = true
			}
		}
	}
	if capturedByClosure {
		return // consumption may happen on any schedule; stay silent
	}

	// Path check: from the creation, can control reach the function exit
	// without passing a statement that consumes or escapes the future?
	usePos := make([]token.Pos, 0, len(uses))
	for _, u := range uses {
		if u.consuming || u.escaping {
			usePos = append(usePos, u.id.Pos())
		}
	}
	avoid := func(s ast.Stmt) bool {
		for _, owned := range cfg.Shallow(s) {
			for _, p := range usePos {
				if owned.Pos() <= p && p < owned.End() {
					return true
				}
			}
		}
		return false
	}
	if g.CanReachExitAvoiding(createStmt, avoid) {
		pass.Reportf(call.Pos(), "task from %s is not awaited on every path: an early return leaks it and drops its error; consume it (Result/Notify/Cancel) on all paths", c)
	}
}

// insideClosure reports whether the use identifier sits inside a function
// literal nested in fnBody (excluding the creation statement itself).
func insideClosure(fnBody *ast.BlockStmt, id *ast.Ident, createStmt ast.Stmt) bool {
	inside := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			if lit.Pos() <= id.Pos() && id.Pos() < lit.End() {
				inside = true
			}
			return false
		}
		return !inside
	})
	return inside
}
