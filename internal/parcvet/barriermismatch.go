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

Inside a pyjama.Parallel region body, constructs the team pairs by
per-member count (tc.Barrier, tc.Single, tc.SingleNoWait, tc.Sections,
tc.For and friends, ForReduce, ForChunkedReduce) must be encountered by
every member. Placing one inside a branch conditioned on tc.ThreadNum() or
tc.SingleNoWait(...), inside a Master/Single/Critical/Ordered closure, or
inside another worksharing body means only part of the team arrives: at a
barrier the rest wait forever; at a nowait construct the members pair
later constructs with the wrong instances. Divergent branches are allowed
if both arms encounter the same number of such constructs.`,
	Severity: report.Error,
	Run:      runBarrierMismatch,
}

func runBarrierMismatch(pass *analysis.Pass) error {
	info := pass.TypesInfo
	pass.Inspect.WithStack([]ast.Node{(*ast.FuncLit)(nil)}, func(n ast.Node, stack []ast.Node) bool {
		lit := n.(*ast.FuncLit)
		if _, s, ok := funcLitSlot(info, stack); ok && s.role == regionBody {
			checkRegionBody(pass, lit)
		}
		return true
	})
	return nil
}

// skipped says what a member that skips a construct of this pairing does
// to the rest of the team.
func (p pairing) skipped() string {
	if p == pairedNoWait {
		return "members pair later constructs with the wrong instances, so work is skipped or repeated"
	}
	return "the team deadlocks at the barrier"
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
					thenCount, worst := countPaired(info, n.Body)
					elseCount := 0
					if n.Else != nil {
						var p pairing
						elseCount, p = countPaired(info, n.Else)
						worst = max(worst, p)
					}
					if thenCount != elseCount {
						pass.Reportf(n.Pos(),
							"branch on %s encounters %d team-synchronising construct(s) in one arm and %d in the other: members taking different arms pair different constructs, and %s; hoist the construct out of the branch or balance the arms",
							why, thenCount, elseCount, worst.skipped())
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
				if p := catalogue[c].paired; p != unpaired && divergent != "" {
					pass.Reportf(n.Pos(),
						"%s inside %s: only part of the team reaches it, so %s", c, divergent, p.skipped())
				}
				walk(n.Fun, divergent)
				for i, a := range n.Args {
					inner, isLit := ast.Unparen(a).(*ast.FuncLit)
					if !isLit {
						walk(a, divergent)
						continue
					}
					switch s, _ := slotOf(c, i); s.role {
					case serialBody:
						walk(inner.Body, "a "+c.String()+" closure (runs on one member only)")
					case memberWorkBody, sharedWorkBody:
						walk(inner.Body, "a worksharing body (iterations are divided, not replicated)")
					case regionBody, taskBody:
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
// different team members for structural (not data) reasons: it calls
// something whose result diverges between members, such as
// tc.ThreadNum() or tc.SingleNoWait.
func divergentCond(pass *analysis.Pass, cond ast.Expr) (string, bool) {
	var why string
	ast.Inspect(cond, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if c, ok := calleeOf(pass.TypesInfo, call); ok {
				why = catalogue[c].diverges
			}
		}
		return why == ""
	})
	return why, why != ""
}

// countPaired counts the team-paired construct calls lexically under n,
// with the worst pairing among them, not descending into nested
// function literals (their bodies are separate contexts).
func countPaired(info *types.Info, n ast.Node) (int, pairing) {
	count, worst := 0, unpaired
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if c, ok := calleeOf(info, call); ok && catalogue[c].paired != unpaired {
				count++
				worst = max(worst, catalogue[c].paired)
			}
		}
		return true
	})
	return count, worst
}
