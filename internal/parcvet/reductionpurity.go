package parcvet

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"parc751/internal/parcpar"
	"parc751/internal/parcvet/analysis"
	"parc751/internal/report"
)

// ReductionPurityAnalyzer checks hand-rolled reducers passed to the
// reduction entry points. The paper's object-oriented reductions (§V-B)
// only produce schedule-independent results when Combine is a pure
// associative fold and Identity constructs a fresh neutral element —
// exactly the properties the stock reducers property-test. Student code
// that writes a Reducer literal inline tends to break one of them: a
// combiner that bumps a captured counter, or an identity of 1 for "+".
var ReductionPurityAnalyzer = &analysis.Analyzer{
	Name: "reductionpurity",
	Doc: `report impure or non-neutral hand-rolled reducers

A reduction.Reducer passed to pyjama.ForReduce / ForChunkedReduce /
ParallelForReduce / reduction.Fold must have (a) a Combine that touches
only its arguments — mutating captured state races across threads and
breaks associativity — and (b) an Identity that is a true neutral element
constructed fresh per call (returning a captured map/slice shares one
object across every thread; returning 1 for a "+" combine adds 1 per
thread, so the answer depends on the thread count).`,
	Severity: report.Error,
	Run:      runReductionPurity,
}

func runReductionPurity(pass *analysis.Pass) error {
	// Check reducer literals at their construction site, wherever they
	// appear (passed inline, assigned to a variable, returned): a Reducer
	// composite literal with an impure combiner is wrong no matter how it
	// reaches the reduction.
	pass.Inspect.Preorder([]ast.Node{(*ast.CompositeLit)(nil)}, func(n ast.Node) {
		comp := n.(*ast.CompositeLit)
		if !isReducerType(pass, comp) {
			return
		}
		checkReducerLiteral(pass, comp)
	})
	return nil
}

// isReducerType reports whether the literal's type is
// reduction.Reducer[T].
func isReducerType(pass *analysis.Pass, comp *ast.CompositeLit) bool {
	t := typeOf(pass, comp)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Reducer" && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == pkgReduction
}

// checkReducerLiteral examines the Identity and Combine fields.
func checkReducerLiteral(pass *analysis.Pass, comp *ast.CompositeLit) {
	var identity, combine *ast.FuncLit
	for _, elt := range comp.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		lit, _ := ast.Unparen(kv.Value).(*ast.FuncLit)
		switch key.Name {
		case "Identity":
			identity = lit
		case "Combine":
			combine = lit
		}
	}

	if combine != nil {
		checkCombinePurity(pass, combine)
	}
	if identity != nil {
		checkIdentityFresh(pass, identity)
	}
	if identity != nil && combine != nil {
		checkIdentityNeutral(pass, identity, combine)
	}
}

// checkCombinePurity flags combiners that write captured state: an
// assignment or ++ through it, or an append into it (append(buf[:0], v)
// writes buf's backing array). Each variable is reported once, so
// `buf = append(buf, v)` is one finding.
func checkCombinePurity(pass *analysis.Pass, combine *ast.FuncLit) {
	info := pass.TypesInfo
	reported := map[*types.Var]bool{}
	check := func(target ast.Expr) {
		if root := parcpar.RootIdent(target); root != nil {
			if v, ok := info.ObjectOf(root).(*types.Var); ok && !parcpar.DeclaredWithin(v, combine) && !reported[v] {
				reported[v] = true
				pass.Reportf(target.Pos(),
					"reduction combiner mutates captured variable %q: per-thread partial folds run concurrently, so the combiner must touch only its arguments; carry the state in the accumulator type instead", root.Name)
			}
		}
	}
	ast.Inspect(combine.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				check(lhs)
			}
		case *ast.IncDecStmt:
			check(n.X)
		case *ast.CallExpr:
			if dst := parcpar.AppendDst(info, n); dst != nil {
				check(dst)
			}
		}
		return true
	})
}

// checkIdentityFresh flags identity functions that return captured
// reference-typed state instead of constructing a fresh value.
func checkIdentityFresh(pass *analysis.Pass, identity *ast.FuncLit) {
	info := pass.TypesInfo
	ast.Inspect(identity.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			root := parcpar.RootIdent(res)
			if root == nil {
				continue
			}
			v, ok := info.ObjectOf(root).(*types.Var)
			if !ok || parcpar.DeclaredWithin(v, identity) {
				continue
			}
			if isReferenceType(typeOf(pass, res)) {
				pass.Reportf(res.Pos(),
					"reduction identity returns captured %q: every thread would share (and mutate) the same object; construct a fresh neutral value per call", root.Name)
			}
		}
		return true
	})
}

// checkIdentityNeutral flags constant identities that are not neutral for
// recognisably-arithmetic combiners (`return a + b` needs 0, `return a *
// b` needs 1).
func checkIdentityNeutral(pass *analysis.Pass, identity, combine *ast.FuncLit) {
	op, ok := combineOperator(combine)
	if !ok {
		return
	}
	val, pos, ok := constantReturn(pass, identity)
	if !ok {
		return
	}
	var neutral constant.Value
	switch op {
	case token.ADD:
		neutral = constant.MakeInt64(0)
	case token.MUL:
		neutral = constant.MakeInt64(1)
	default:
		return
	}
	if constant.Compare(constant.ToFloat(val), token.EQL, constant.ToFloat(neutral)) {
		return
	}
	pass.Reportf(pos,
		"reduction identity %s is not neutral for the %q combiner: each thread folds the identity in once, so the result depends on the thread count (want %s)",
		val.ExactString(), op.String(), neutral.ExactString())
}

// combineOperator recognises `func(a, b T) T { return a OP b }` where the
// operands are the two parameters in either order.
func combineOperator(combine *ast.FuncLit) (token.Token, bool) {
	if len(combine.Body.List) != 1 || combine.Type.Params == nil {
		return 0, false
	}
	var params []string
	for _, f := range combine.Type.Params.List {
		for _, name := range f.Names {
			params = append(params, name.Name)
		}
	}
	if len(params) != 2 {
		return 0, false
	}
	ret, ok := combine.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return 0, false
	}
	bin, ok := ast.Unparen(ret.Results[0]).(*ast.BinaryExpr)
	if !ok {
		return 0, false
	}
	x, xok := ast.Unparen(bin.X).(*ast.Ident)
	y, yok := ast.Unparen(bin.Y).(*ast.Ident)
	if !xok || !yok {
		return 0, false
	}
	names := map[string]bool{params[0]: true, params[1]: true}
	if !names[x.Name] || !names[y.Name] || x.Name == y.Name {
		return 0, false
	}
	return bin.Op, true
}

// constantReturn recognises `func() T { return <const> }` and returns the
// constant value.
func constantReturn(pass *analysis.Pass, identity *ast.FuncLit) (constant.Value, token.Pos, bool) {
	if len(identity.Body.List) != 1 {
		return nil, 0, false
	}
	ret, ok := identity.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return nil, 0, false
	}
	tv, ok := pass.TypesInfo.Types[ret.Results[0]]
	if !ok || tv.Value == nil {
		return nil, 0, false
	}
	if tv.Value.Kind() != constant.Int && tv.Value.Kind() != constant.Float {
		return nil, 0, false
	}
	return tv.Value, ret.Results[0].Pos(), true
}

// isReferenceType reports whether mutating a value of this type is
// visible through other references to it.
func isReferenceType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Map, *types.Slice, *types.Pointer, *types.Chan:
		return true
	}
	return false
}
