package parcvet

import (
	"go/ast"
	"go/types"

	"parc751/internal/parcvet/analysis"
	"parc751/internal/report"
)

// BarrierMismatchAnalyzer flags Pyjama barriers and worksharing
// constructs placed under thread-divergent control flow inside an SPMD
// region body. The OpenMP/Pyjama contract (§IV-B and DESIGN.md §8) is
// that every team member encounters the same sequence of worksharing
// constructs; a tc.Barrier() guarded by `if tc.ThreadNum() == 0` is
// reached by one member only and the team deadlocks. This is the static
// sibling of the runtime SPMD-mismatch detector (PYJAMA_DEBUG): the
// runtime catches the (n, schedule) mismatch at the construct, this
// analyzer catches the control-flow shape that produces it.
var BarrierMismatchAnalyzer = &analysis.Analyzer{
	Name: "barriermismatch",
	Doc: `report barriers/worksharing constructs under thread-divergent control flow

Inside a pyjama.Parallel region body, constructs that synchronise the team
(tc.Barrier, tc.Single, tc.Sections, tc.For and friends, ForReduce,
ForChunkedReduce) must be
encountered by every member. Placing one inside a branch conditioned on
tc.ThreadNum() or tc.SingleNoWait(...), inside a Master/Single/Critical/
Ordered closure, or inside another worksharing loop body means only part of
the team arrives — the rest wait forever. Divergent branches are allowed if
both arms encounter the same number of synchronising constructs.`,
	Severity: report.Error,
	Run:      runBarrierMismatch,
}

func runBarrierMismatch(pass *analysis.Pass) error {
	info := pass.TypesInfo
	pass.Inspect.WithStack([]ast.Node{(*ast.FuncLit)(nil)}, func(n ast.Node, stack []ast.Node) bool {
		lit := n.(*ast.FuncLit)
		if c, arg, ok := funcLitArg(info, stack); ok && isRegionBody(c, arg) {
			checkRegionBody(pass, lit)
		}
		return true
	})
	return nil
}

// isBarriered reports whether the call synchronises the whole team (has
// an implied or explicit barrier / SPMD pairing requirement).
func isBarriered(c callee) bool {
	switch {
	case c.isMethod(pkgPyjama, "TC", "Barrier"),
		c.isMethod(pkgPyjama, "TC", "Single"),
		c.isMethod(pkgPyjama, "TC", "Sections"),
		c.isMethod(pkgPyjama, "TC", "For"),
		c.isMethod(pkgPyjama, "TC", "ForChunked"),
		c.isMethod(pkgPyjama, "TC", "For2D"),
		c.isMethod(pkgPyjama, "TC", "ForRange"),
		c.is(pkgPyjama, "ForReduce"),
		c.is(pkgPyjama, "ForChunkedReduce"):
		return true
	// NoWait variants still require SPMD pairing: every member must
	// encounter them to claim its share of the iterations.
	case c.isMethod(pkgPyjama, "TC", "ForNoWait"),
		c.isMethod(pkgPyjama, "TC", "For2DNoWait"):
		return true
	}
	return false
}

// checkRegionBody walks one region body tracking divergent contexts.
func checkRegionBody(pass *analysis.Pass, body *ast.FuncLit) {
	info := pass.TypesInfo

	var walk func(n ast.Node, divergent string)
	walk = func(root ast.Node, divergent string) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IfStmt:
				if why, ok := divergentCond(pass, n.Cond); ok {
					// A divergent branch is fine if both arms encounter
					// the same number of synchronising constructs (the
					// team pairs them by per-thread sequence number).
					thenCount := countBarriered(info, n.Body)
					elseCount := 0
					if n.Else != nil {
						elseCount = countBarriered(info, n.Else)
					}
					if thenCount != elseCount {
						pass.Reportf(n.Pos(),
							"branch on %s encounters %d team-synchronising construct(s) in one arm and %d in the other: members taking different arms pair different constructs and the team deadlocks; hoist the barrier out of the branch or balance the arms",
							why, thenCount, elseCount)
					}
					// Still walk the arms to catch deeper misuse, but
					// without re-reporting balanced divergence.
					walk(n.Body, divergent)
					if n.Else != nil {
						walk(n.Else, divergent)
					}
					if n.Init != nil {
						walk(n.Init, divergent)
					}
					return false
				}
				return true
			case *ast.ForStmt:
				if n.Cond != nil {
					if why, ok := divergentCond(pass, n.Cond); ok {
						walk(n.Body, "a loop whose bound depends on "+why)
						if n.Init != nil {
							walk(n.Init, divergent)
						}
						if n.Post != nil {
							walk(n.Post, divergent)
						}
						return false
					}
				}
				return true
			case *ast.SwitchStmt:
				if n.Tag != nil {
					if why, ok := divergentCond(pass, n.Tag); ok {
						walk(n.Body, "a switch on "+why)
						return false
					}
				}
				return true
			case *ast.CallExpr:
				c, ok := calleeOf(info, n)
				if !ok {
					return true
				}
				if isBarriered(c) && divergent != "" {
					pass.Reportf(n.Pos(),
						"%s inside %s: only part of the team reaches it, the rest wait forever at the implied barrier/worksharing pairing", c, divergent)
				}
				walk(n.Fun, divergent)
				for i, a := range n.Args {
					inner, isLit := ast.Unparen(a).(*ast.FuncLit)
					if !isLit {
						walk(a, divergent)
						continue
					}
					switch {
					case isSerialisingBody(c, i):
						walk(inner.Body, "a "+c.String()+" closure (runs on one member only)")
					case c.isMethod(pkgPyjama, "TC", "Sections"):
						walk(inner.Body, "a tc.Sections section (runs on one member only)")
					case isWorksharingBody(c, i):
						walk(inner.Body, "a worksharing loop body (iterations are divided, not replicated)")
					case isRegionBody(c, i) || isTaskBody(c, i):
						// A nested region/task gets its own team/thread:
						// its body is a fresh SPMD context, checked when
						// the inspector reaches that literal.
					default:
						walk(inner.Body, divergent)
					}
				}
				return false
			}
			return true
		})
	}
	walk(body.Body, "")
}

// divergentCond reports whether the condition can evaluate differently on
// different team members for structural (not data) reasons: it mentions
// tc.ThreadNum() or claims a single slot via tc.SingleNoWait.
func divergentCond(pass *analysis.Pass, cond ast.Expr) (string, bool) {
	info := pass.TypesInfo
	var why string
	ast.Inspect(cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if c, ok := calleeOf(info, call); ok {
			switch {
			case c.isMethod(pkgPyjama, "TC", "ThreadNum"):
				why = "tc.ThreadNum()"
				return false
			case c.isMethod(pkgPyjama, "TC", "SingleNoWait"):
				why = "tc.SingleNoWait(...) (true on exactly one member)"
				return false
			}
		}
		return true
	})
	return why, why != ""
}

// countBarriered counts team-synchronising construct calls lexically
// under n, not descending into nested function literals (their bodies are
// separate contexts).
func countBarriered(info *types.Info, n ast.Node) int {
	count := 0
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if c, ok := calleeOf(info, call); ok && isBarriered(c) {
				count++
			}
		}
		return true
	})
	return count
}
