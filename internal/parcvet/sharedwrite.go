package parcvet

import (
	"go/ast"
	"go/token"
	"go/types"

	"parc751/internal/parcpar"
	"parc751/internal/parcvet/analysis"
	"parc751/internal/report"
)

// SharedWriteAnalyzer flags unsynchronised writes to captured variables
// inside closures that the runtime executes concurrently — the classic
// race the paper's Java-memory-model lab (§IV-C) teaches. A worksharing
// body runs on every team member at once; `sum += x` on a captured `sum`
// is a data race unless the write is serialised (tc.Critical, Single,
// Master, Ordered, a held sync.Mutex) or restructured as a reduction /
// per-thread slot.
var SharedWriteAnalyzer = &analysis.Analyzer{
	Name: "sharedwrite",
	Doc: `report racy writes to captured variables in parallel closure bodies

Closures passed to pyjama worksharing constructs (tc.For, ParallelFor,
ForReduce, ForChunkedReduce bodies), parallel region bodies, and
ptask/pool task bodies run concurrently. Writing a variable captured
from outside the concurrency boundary races unless the write is
serialised. The boundary is per-construct: a tc.For or ForReduce body
closure is created by each team member, so anything declared in the
member's own frame (the region body, a helper taking the tc) is private;
a pyjama.Parallel region body or ParallelFor body is one closure shared
by the whole team, so only its own locals are private; a task closure
created inside a loop owns that iteration's
locals. Recognised-safe patterns: element writes that parcpar's
dependence test keeps in their own iteration (index i, i±c or i*S+j over
the construct's iteration parameters, and no access to the same slice at
another index); element writes indexed by tc.ThreadNum() or a
per-instance local (distinct slots); writes
inside tc.Critical/Single/SingleNoWait/Master/Ordered closures; writes
preceded by a sync.Mutex Lock in the same statement sequence; and closures
delivered on the GUI thread (serialised by the single looper). Captured
maps are flagged unconditionally — concurrent map writes are undefined
behaviour even on distinct keys. Restructure with pyjama.ForReduce,
ThreadPrivate, or tc.Critical.`,
	Severity: report.Error,
	Run:      runSharedWrite,
}

func runSharedWrite(pass *analysis.Pass) error {
	info := pass.TypesInfo
	pass.Inspect.WithStack([]ast.Node{(*ast.FuncLit)(nil)}, func(n ast.Node, stack []ast.Node) bool {
		lit := n.(*ast.FuncLit)
		c, s, ok := funcLitSlot(info, stack)
		if !ok {
			return true
		}
		// localNodes are the regions whose declarations do not race with
		// other executions of this closure — the concurrency boundary.
		localNodes := []ast.Node{lit}
		var kind string
		switch s.role {
		case memberWorkBody:
			// SPMD: each member executes the enclosing region body (or a
			// helper that received the tc) in its own frame and builds its
			// own closure instance there. Locals of that frame are
			// per-member; only captures from beyond it are shared.
			kind = "worksharing body " + c.String()
			if fn := enclosingFunction(stack[:len(stack)-1]); fn != nil {
				localNodes = append(localNodes, fn)
			}
		case sharedWorkBody:
			// ParallelFor and ParallelForReduce: one closure shared by the
			// whole team.
			kind = "worksharing body " + c.String()
		case regionBody:
			kind = "parallel region body " + c.String()
		case taskBody:
			kind = "task body " + c.String()
			// A task closure built inside a loop captures that iteration's
			// locals — fresh per instance, so not shared between tasks.
			localNodes = append(localNodes, enclosingLoops(stack[:len(stack)-1])...)
		default:
			return true
		}
		checkConcurrentBody(pass, lit, kind, localNodes, iterationParams(info, s, lit))
		return true
	})
	return nil
}

// iterationParams returns the body parameters that name one iteration,
// the slot's leading iters of them. The reductions' last parameter is
// the member's accumulator, which two members can share a value of.
func iterationParams(info *types.Info, s slot, lit *ast.FuncLit) []types.Object {
	var params []types.Object
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			params = append(params, info.Defs[name])
		}
	}
	return params[:min(len(params), s.iters)]
}

// enclosingFunction returns the innermost function declaration or literal
// on the stack, or nil.
func enclosingFunction(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			return stack[i]
		}
	}
	return nil
}

// enclosingLoops returns the for/range statements on the stack inside the
// innermost enclosing function.
func enclosingLoops(stack []ast.Node) []ast.Node {
	var out []ast.Node
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			return out
		case *ast.ForStmt, *ast.RangeStmt:
			out = append(out, stack[i])
		}
	}
	return out
}

// checkConcurrentBody scans one concurrently-executed closure for
// captured-variable writes; index holds its iteration parameters.
func checkConcurrentBody(pass *analysis.Pass, body *ast.FuncLit, kind string, localNodes []ast.Node, index []types.Object) {
	info := pass.TypesInfo

	// Walk the body carrying the "serialised" state: once we are inside a
	// closure passed to Critical/Single/Master/Ordered or delivered on the
	// single GUI thread, writes are safe.
	var walk func(n ast.Node, serialised bool)
	walk = func(root ast.Node, serialised bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				c, ok := calleeOf(info, n)
				if !ok || !containsFuncLitArg(n) {
					return true
				}
				// Walk the arguments by hand so each closure gets the
				// right serialisation state, then stop the default
				// descent (it would re-walk them with the wrong state).
				walk(n.Fun, serialised)
				for i, a := range n.Args {
					inner, isLit := ast.Unparen(a).(*ast.FuncLit)
					if !isLit {
						walk(a, serialised)
						continue
					}
					s, _ := slotOf(c, i)
					switch {
					case s.role == serialBody || s.role == guiBody:
						// Exclusive, one member, or the one dispatch
						// thread that delivers everything in order.
						walk(inner.Body, true)
					case s.role.parallel():
						// A nested parallel construct: runSharedWrite
						// scans it as its own context.
					default:
						walk(inner.Body, serialised)
					}
				}
				return false
			case *ast.AssignStmt:
				if !serialised {
					for _, lhs := range n.Lhs {
						checkWrite(pass, body, lhs, index, kind, localNodes)
					}
				}
				return true
			case *ast.IncDecStmt:
				if !serialised {
					checkWrite(pass, body, n.X, index, kind, localNodes)
				}
				return true
			}
			return true
		})
	}
	walk(body.Body, false)
}

// containsFuncLitArg reports whether any argument of call is a function
// literal (those are walked explicitly with the right serialisation
// state).
func containsFuncLitArg(call *ast.CallExpr) bool {
	for _, a := range call.Args {
		if _, ok := ast.Unparen(a).(*ast.FuncLit); ok {
			return true
		}
	}
	return false
}

// checkWrite analyses one assignment target inside a concurrent body.
func checkWrite(pass *analysis.Pass, body *ast.FuncLit, lhs ast.Expr, index []types.Object, kind string, localNodes []ast.Node) {
	info := pass.TypesInfo

	// Unwrap the access path down to the root identifier, remembering the
	// element steps (outermost first) and whether any goes through a map.
	var steps []*ast.IndexExpr
	mapWrite := false
	expr := lhs
unwrap:
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			if t := typeOf(pass, e.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					mapWrite = true
				}
			}
			steps = append(steps, e)
			expr = e.X
		default:
			break unwrap
		}
	}
	root, ok := expr.(*ast.Ident)
	if !ok || root.Name == "_" {
		return
	}
	v, ok := info.ObjectOf(root).(*types.Var)
	if !ok {
		return
	}
	if declaredInsideAny(v, localNodes) {
		return // private to this execution of the concurrent body
	}
	// Pointer-typed roots that are per-iteration would already be local;
	// a captured pointer dereference is still a shared write.

	if underMutexLock(info, body, lhs.Pos()) {
		return // the statement sequence holds a sync.Mutex around the write
	}

	if mapWrite {
		pass.Reportf(lhs.Pos(),
			"concurrent write to captured map %q in %s: map writes race even on distinct keys; merge per-thread maps with pyjama.ForReduce or guard with tc.Critical", root.Name, kind)
		return
	}
	// An element write stays in its own iteration when parcpar's
	// dependence test says so, or when it goes through the thread id or a
	// per-execution local (the DESIGN.md §9 escapes).
	if len(steps) > 0 {
		for _, st := range steps {
			if perExecutionIndex(pass, body, st.Index, localNodes) {
				return
			}
		}
		if parcpar.OwnSlot(info, pass.Fset, body.Body, index, steps[0]) {
			return
		}
		pass.Reportf(lhs.Pos(),
			"write to element of captured %q in %s may hit another iteration's slot: the index is not the loop variable (i, i±c, i*S+j) or tc.ThreadNum(), or the body reads or writes the same base at another index; index by the loop variable, or reduce with pyjama.ForReduce", root.Name, kind)
		return
	}
	pass.Reportf(lhs.Pos(),
		"write to captured variable %q in %s: every concurrent execution races on it; use pyjama.ForReduce / ThreadPrivate per-thread slots, or serialise with tc.Critical", root.Name, kind)
}

// declaredInsideAny reports whether obj is declared inside any of the
// nodes.
func declaredInsideAny(obj types.Object, nodes []ast.Node) bool {
	for _, n := range nodes {
		if parcpar.DeclaredWithin(obj, n) {
			return true
		}
	}
	return false
}

// underMutexLock reports whether, in some statement sequence inside body
// enclosing pos, the write at pos is preceded by a bare `m.Lock()` on a
// sync.Mutex/RWMutex with no later bare `Unlock()` before it. The scan is
// sibling-level only (it does not look inside compound statements for
// lock operations), which keeps it a cheap, predictable heuristic: the
// canonical lock…write…unlock sequence is recognised, contrived shapes
// fall back to reporting.
func underMutexLock(info *types.Info, body *ast.FuncLit, pos token.Pos) bool {
	held := false
	ast.Inspect(body.Body, func(n ast.Node) bool {
		if n == nil || held {
			return false
		}
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			return true
		}
		// Only sequences that contain pos matter.
		locked := false
		for _, s := range list {
			if s.Pos() > pos {
				break
			}
			if s.End() > pos {
				// s is the statement containing the write.
				if locked {
					held = true
				}
				break
			}
			switch mutexOp(info, s) {
			case "Lock":
				locked = true
			case "Unlock":
				locked = false
			}
		}
		return !held
	})
	return held
}

// mutexOp classifies a statement as a bare sync mutex Lock/Unlock call.
func mutexOp(info *types.Info, s ast.Stmt) string {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return ""
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return ""
	}
	c, _ := calleeOf(info, call)
	return catalogue[c].mutex
}

// perExecutionIndex reports whether the index expression goes through
// tc.ThreadNum() or a variable private to this execution of the body,
// which the lint assumes was derived from the iteration — the deliberate
// false negative documented in DESIGN.md §9. The body's own parameters
// are not such variables: iteration parameters are parcpar.OwnSlot's to
// judge, and ForReduce's accumulator is a value two members can share.
func perExecutionIndex(pass *analysis.Pass, body *ast.FuncLit, idx ast.Expr, localNodes []ast.Node) bool {
	info := pass.TypesInfo
	distinct := false
	ast.Inspect(idx, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := info.ObjectOf(n); declaredInsideAny(obj, localNodes) && !parcpar.DeclaredWithin(obj, body.Type) {
				distinct = true
			}
		case *ast.CallExpr:
			if c, ok := calleeOf(info, n); ok && catalogue[c].memberID {
				distinct = true
			}
		}
		return !distinct
	})
	return distinct
}
