package parcvet

import (
	"go/ast"
	"go/token"

	"parc751/internal/parcvet/analysis"
	"parc751/internal/report"
)

// GUIBlockAnalyzer flags blocking calls reachable from GUI-thread
// callbacks — the paper's concurrency-versus-parallelism lesson (§IV-B):
// work must stay off the event-dispatch thread, and completion handlers
// hop back onto it. A handler that calls Future.Get, Pool.Quiesce, a
// blocking pyjama.Parallel region, or time.Sleep freezes every pending
// repaint behind it.
var GUIBlockAnalyzer = &analysis.Analyzer{
	Name: "guiblock",
	Doc: `report blocking calls inside GUI event-dispatch callbacks

A closure that runs on the event loop (eventloop.Loop.InvokeLater,
pyjama.OnGUI, ptask Notify callbacks, android.Handler.Post, AsyncTask
OnPostExecute/OnProgressUpdate) must not wait: calls that block — Future.Get,
Task.Result, Pool.Quiesce, Pool.HelpJoin, WaitAll, a synchronous
pyjama.Parallel region, receiving from Done(), time.Sleep — freeze the UI.
Offload with ptask or pyjama.Async and deliver results via Notify/OnGUI.`,
	Severity: report.Error,
	Run:      runGUIBlock,
}

// asyncTaskCallbacks are the android.AsyncTask fields delivered on the
// main looper.
var asyncTaskCallbacks = map[string]bool{
	"OnPreExecute":     true,
	"OnProgressUpdate": true,
	"OnPostExecute":    true,
	"OnCancelled":      true,
}

func runGUIBlock(pass *analysis.Pass) error {
	info := pass.TypesInfo

	// 1. Collect every function literal that is a GUI-thread callback,
	// with a description of how it gets onto the dispatch thread.
	handlers := map[*ast.FuncLit]string{}
	pass.Inspect.WithStack([]ast.Node{(*ast.FuncLit)(nil)}, func(n ast.Node, stack []ast.Node) bool {
		lit := n.(*ast.FuncLit)
		if _, s, ok := funcLitSlot(info, stack); ok && s.role == guiBody {
			handlers[lit] = s.gui
		}
		// android.AsyncTask callback fields, assigned or set in a
		// composite literal.
		if len(stack) >= 2 {
			switch parent := stack[len(stack)-2].(type) {
			case *ast.KeyValueExpr:
				if key, ok := parent.Key.(*ast.Ident); ok && asyncTaskCallbacks[key.Name] && len(stack) >= 3 {
					if comp, ok := stack[len(stack)-3].(*ast.CompositeLit); ok && isAsyncTaskType(pass, comp) {
						handlers[lit] = "android.AsyncTask." + key.Name + " callback (runs on the main looper)"
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range parent.Rhs {
					if ast.Unparen(rhs) != lit || i >= len(parent.Lhs) {
						continue
					}
					if sel, ok := parent.Lhs[i].(*ast.SelectorExpr); ok && asyncTaskCallbacks[sel.Sel.Name] &&
						namedTypeName(typeOf(pass, sel.X)) == "AsyncTask" {
						handlers[lit] = "android.AsyncTask." + sel.Sel.Name + " callback (runs on the main looper)"
					}
				}
			}
		}
		return true
	})
	if len(handlers) == 0 {
		return nil
	}

	// 2. Function literals launched via `go` run off the handler thread;
	// immediately-invoked literals run on it.
	goLaunched := map[*ast.FuncLit]bool{}
	pass.Inspect.Preorder([]ast.Node{(*ast.GoStmt)(nil)}, func(n ast.Node) {
		if lit, ok := ast.Unparen(n.(*ast.GoStmt).Call.Fun).(*ast.FuncLit); ok {
			goLaunched[lit] = true
		}
	})

	// 3. Scan each handler body for blocking calls. Nested literals are
	// only followed when they still execute on the dispatch thread:
	// goroutine launches and closures handed to the task/worksharing APIs
	// run elsewhere (and are classified as their own contexts if needed).
	for lit, desc := range handlers {
		scanHandlerBody(pass, lit, desc, goLaunched)
	}
	return nil
}

func scanHandlerBody(pass *analysis.Pass, handler *ast.FuncLit, desc string, goLaunched map[*ast.FuncLit]bool) {
	info := pass.TypesInfo
	ast.Inspect(handler.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n == handler {
				return true
			}
			// Stays on the dispatch thread only if it is neither a
			// goroutine body nor a closure handed to an async API.
			if goLaunched[n] {
				return false
			}
			return true
		case *ast.GoStmt:
			// Arguments are evaluated on the handler thread, but the
			// launched body is not; the FuncLit case above skips it.
			return true
		case *ast.UnaryExpr:
			// <-t.Done() inside a handler blocks until completion.
			if n.Op == token.ARROW {
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
					if c, ok := calleeOf(info, call); ok && catalogue[c].done {
						pass.Reportf(n.Pos(), "receiving from %s blocks the GUI dispatch thread inside %s; use Notify to deliver the result back to the loop", c, desc)
					}
				}
			}
			return true
		case *ast.CallExpr:
			c, ok := calleeOf(info, n)
			if !ok {
				return true
			}
			if why := catalogue[c].blocks; why != "" {
				pass.Reportf(n.Pos(), "call to %s %s inside %s; hand the work to ptask or pyjama.Async and return, delivering results via Notify/OnGUI", c, why, desc)
			}
			// A closure passed to a task/worksharing construct runs
			// off-thread; do not descend into it from here.
			for i, arg := range n.Args {
				if inner, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					if s, _ := slotOf(c, i); s.role.parallel() {
						goLaunched[inner] = true // reuse the skip set
					}
				}
			}
			return true
		}
		return true
	})
}
