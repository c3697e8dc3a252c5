package parcpar

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"parc751/internal/parcvet/cfg"
	"parc751/internal/parcvet/loader"
)

// analyzer carries one package's worth of analysis state.
type analyzer struct {
	l      *loader.Loader
	pkg    *loader.Package
	info   *types.Info
	fset   *token.FileSet
	table  *ProbeTable
	purity *purityChecker
	graph  *cfg.Graph // CFG of the function currently being classified
	// costMemo caches per-callee body costs for the cost model.
	costMemo map[*types.Func]float64
}

// parallelPkgs are the runtime packages whose presence marks a function
// as already parallel-aware — those loops are orchestration, not
// opportunity, and belong to parcvet.
var parallelPkgs = map[string]bool{
	"parc751/internal/pyjama":    true,
	"parc751/internal/ptask":     true,
	"parc751/internal/sched":     true,
	"parc751/internal/core":      true,
	"parc751/internal/eventloop": true,
	"sync":                       true,
	"sync/atomic":                true,
}

func (a *analyzer) usesParallelRuntime(fn *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		if pn, ok := a.info.Uses[id].(*types.PkgName); ok && parallelPkgs[pn.Imported().Path()] {
			found = true
		}
		return true
	})
	return found
}

// classifyFunc classifies the candidate loops of one function,
// outermost-first: an accepted loop swallows its nested loops (the
// standard parallelize-outermost rule); a rejected or non-canonical one
// exposes its children as candidates of their own.
func (a *analyzer) classifyFunc(fn *ast.FuncDecl) []Loop {
	a.graph = cfg.New(fn.Body)
	name := funcName(fn)
	var out []Loop
	var walk func(stmts []ast.Stmt)
	classify := func(s ast.Stmt, body *ast.BlockStmt) {
		lp, ok := a.classifyLoop(fn, s)
		if ok {
			lp.Func = name
			out = append(out, lp)
			if lp.Class == ClassParallel || lp.Class == ClassReduction {
				return // don't surface nested candidates of an accepted loop
			}
		}
		walk(body.List)
	}
	var walkStmt func(s ast.Stmt)
	walkStmt = func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.ForStmt:
			classify(s, s.Body)
		case *ast.RangeStmt:
			classify(s, s.Body)
		case *ast.BlockStmt:
			walk(s.List)
		case *ast.IfStmt:
			walkStmt(s.Body)
			if s.Else != nil {
				walkStmt(s.Else)
			}
		case *ast.SwitchStmt:
			walk(s.Body.List)
		case *ast.TypeSwitchStmt:
			walk(s.Body.List)
		case *ast.SelectStmt:
			walk(s.Body.List)
		case *ast.CaseClause:
			walk(s.Body)
		case *ast.CommClause:
			walk(s.Body)
		case *ast.LabeledStmt:
			walkStmt(s.Stmt)
		}
		// FuncLits are deliberately not descended into: a loop inside a
		// closure runs in whatever context the closure runs in.
	}
	walk = func(stmts []ast.Stmt) {
		for _, s := range stmts {
			walkStmt(s)
		}
	}
	walk(fn.Body.List)
	return out
}

// loopShape is the canonical form of a candidate loop.
type loopShape struct {
	isRange bool
	// index is the iteration variable: the 3-clause loop var, or the
	// range key. nil for `for _, v := range xs` (valueOnly).
	index    *ast.Ident
	indexObj types.Object
	// lo/hi bound the 3-clause form `for i := lo; i < hi; i++`.
	lo, hi ast.Expr
	// loZero reports lo is the constant 0.
	loZero bool
	// rangeX / value describe `for i, v := range xs` over a slice/array.
	rangeX   ast.Expr
	value    *ast.Ident
	valueObj types.Object
	body     *ast.BlockStmt
	// tripConst is hi-lo (or the ranged array length) when known at
	// compile time; 0 otherwise.
	tripConst int
}

// canonicalize extracts the canonical form, or returns false for loops
// outside the model (while-style, downward, non-slice ranges, `i = lo`
// reusing an outer variable). Non-canonical loops are skipped silently —
// they are not "rejected", they were never candidates.
func (a *analyzer) canonicalize(s ast.Stmt) (*loopShape, bool) {
	switch s := s.(type) {
	case *ast.ForStmt:
		sh := &loopShape{body: s.Body}
		init, ok := s.Init.(*ast.AssignStmt)
		if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
			return nil, false
		}
		idx, ok := init.Lhs[0].(*ast.Ident)
		if !ok || idx.Name == "_" {
			return nil, false
		}
		sh.index = idx
		sh.indexObj = a.info.Defs[idx]
		sh.lo = init.Rhs[0]
		cond, ok := s.Cond.(*ast.BinaryExpr)
		if !ok || cond.Op != token.LSS {
			return nil, false
		}
		if ci, ok := cond.X.(*ast.Ident); !ok || a.info.Uses[ci] != sh.indexObj {
			return nil, false
		}
		sh.hi = cond.Y
		switch post := s.Post.(type) {
		case *ast.IncDecStmt:
			pi, ok := post.X.(*ast.Ident)
			if !ok || post.Tok != token.INC || a.info.Uses[pi] != sh.indexObj {
				return nil, false
			}
		case *ast.AssignStmt:
			if post.Tok != token.ADD_ASSIGN || len(post.Lhs) != 1 || len(post.Rhs) != 1 {
				return nil, false
			}
			pi, ok := post.Lhs[0].(*ast.Ident)
			if !ok || a.info.Uses[pi] != sh.indexObj || !a.isConstInt(post.Rhs[0], 1) {
				return nil, false
			}
		default:
			return nil, false
		}
		// The bound must be loop-invariant: free of the index and of
		// anything the body writes (checked cheaply: hi mentions no ident
		// assigned anywhere in the body).
		if a.mentionsObj(sh.hi, sh.indexObj) || a.mentionsBodyWrite(sh.hi, sh.body) {
			return nil, false
		}
		sh.loZero = a.isConstInt(sh.lo, 0)
		if lo, okLo := a.constIntValue(sh.lo); okLo {
			if hi, okHi := a.constIntValue(sh.hi); okHi && hi > lo {
				sh.tripConst = hi - lo
			}
		}
		return sh, true

	case *ast.RangeStmt:
		sh := &loopShape{isRange: true, body: s.Body, rangeX: s.X}
		t := a.info.TypeOf(s.X)
		if t == nil {
			return nil, false
		}
		switch u := t.Underlying().(type) {
		case *types.Slice:
		case *types.Array:
			sh.tripConst = int(u.Len())
		case *types.Pointer:
			if _, ok := u.Elem().Underlying().(*types.Array); !ok {
				return nil, false
			}
		default:
			return nil, false // maps/channels/strings/ints are out of model
		}
		if s.Tok != token.DEFINE && s.Key != nil {
			return nil, false // `for i = range xs` reuses an outer variable
		}
		if s.Key != nil {
			ki, ok := s.Key.(*ast.Ident)
			if !ok {
				return nil, false
			}
			if ki.Name != "_" {
				sh.index = ki
				sh.indexObj = a.info.Defs[ki]
			}
		}
		if s.Value != nil {
			vi, ok := s.Value.(*ast.Ident)
			if !ok {
				return nil, false
			}
			if vi.Name != "_" {
				sh.value = vi
				sh.valueObj = a.info.Defs[vi]
			}
		}
		// The ranged expression must be loop-invariant w.r.t. the body.
		if a.mentionsBodyWrite(s.X, sh.body) {
			return nil, false
		}
		sh.loZero = true
		return sh, true
	}
	return nil, false
}

// isConstInt reports whether e is the integer constant v.
func (a *analyzer) isConstInt(e ast.Expr, v int) bool {
	got, ok := a.constIntValue(e)
	return ok && got == v
}

// constIntValue evaluates e as a compile-time integer constant.
func (a *analyzer) constIntValue(e ast.Expr) (int, bool) {
	tv, ok := a.info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	v, exact := constant.Int64Val(tv.Value)
	if !exact {
		return 0, false
	}
	return int(v), true
}

// mentionsObj reports whether e references obj.
func (a *analyzer) mentionsObj(e ast.Expr, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && a.info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// mentionsBodyWrite reports whether e references any variable assigned
// inside body — i.e. whether e is not loop-invariant.
func (a *analyzer) mentionsBodyWrite(e ast.Expr, body *ast.BlockStmt) bool {
	written := map[types.Object]bool{}
	record := func(lhs ast.Expr) {
		if id, ok := lhs.(*ast.Ident); ok {
			if obj := a.info.ObjectOf(id); obj != nil {
				written[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				record(lhs)
			}
		case *ast.IncDecStmt:
			record(n.X)
		}
		return true
	})
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := a.info.Uses[id]; obj != nil && written[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// within reports whether pos lies in [node.Pos(), node.End()].
func within(pos token.Pos, node ast.Node) bool {
	return pos >= node.Pos() && pos <= node.End()
}

// DeclaredWithin reports whether obj is declared inside node's span —
// the locality test separating private per-iteration state from shared,
// and, in parcvet, a closure's locals from its captures.
func DeclaredWithin(obj types.Object, node ast.Node) bool {
	return obj != nil && obj.Pos() != token.NoPos && within(obj.Pos(), node)
}
