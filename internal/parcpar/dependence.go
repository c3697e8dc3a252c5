package parcpar

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// classifyLoop runs one candidate through the pipeline:
//
//	canonical form → construct scan → early exits (CFG) →
//	write/dependence analysis → call purity → cost model.
//
// The second return is false when the loop is not a candidate at all
// (non-canonical shape) — that is a skip, not a rejection.
func (a *analyzer) classifyLoop(fn *ast.FuncDecl, s ast.Stmt) (Loop, bool) {
	sh, ok := a.canonicalize(s)
	if !ok {
		return Loop{}, false
	}
	lp := Loop{Stmt: s, shape: sh}

	if reason, bad := a.scanConstructs(sh); bad {
		lp.Class = ClassImpure
		lp.Reason = "impurity: " + reason
		return lp, true
	}
	if reason, exits := a.earlyExit(sh, s); exits {
		lp.Class = ClassEarlyExit
		lp.Reason = "early exit: " + reason + " — trip count is data-dependent"
		return lp, true
	}
	red, mems, reason, dep := a.checkWrites(sh)
	if dep {
		lp.Class = ClassDependence
		lp.Reason = "loop-carried dependence: " + reason
		return lp, true
	}
	if reason, impure := a.checkCalls(sh); impure {
		lp.Class = ClassImpure
		lp.Reason = "impurity: " + reason
		return lp, true
	}
	if reason, dep := a.checkCallAliasing(sh, mems); dep {
		lp.Class = ClassDependence
		lp.Reason = "loop-carried dependence: " + reason
		return lp, true
	}

	trip, exact, bodyNs, sched := a.estimate(sh)
	lp.Trip, lp.TripExact, lp.BodyNs = trip, exact, bodyNs
	lp.TotalNs = float64(trip) * bodyNs
	lp.Sched = sched
	threshold := a.table.ForkJoinNs * a.table.WorthFactor
	if lp.TotalNs < threshold {
		lp.Class = ClassBelowThreshold
		lp.Reason = fmt.Sprintf("parallelizable but below cost threshold (est %d iter × %.1f ns/iter = %.0f ns < %.0f ns); not worth forking", trip, bodyNs, lp.TotalNs, threshold)
		return lp, true
	}
	if red != nil {
		lp.Class = ClassReduction
		lp.Red = red
		lp.Reason = fmt.Sprintf("loop is a parallelizable %s reduction over %s (accumulator %q); suggest pyjama.ParallelForReduce with %s (est %d iter × %.1f ns/iter = %.0f ns ≥ %.0f ns threshold)",
			red.Kind, red.Type, red.Name, sched, trip, bodyNs, lp.TotalNs, threshold)
	} else {
		lp.Class = ClassParallel
		lp.Reason = fmt.Sprintf("loop is parallelizable; suggest pyjama.ParallelFor with %s (est %d iter × %.1f ns/iter = %.0f ns ≥ %.0f ns threshold)",
			sched, trip, bodyNs, lp.TotalNs, threshold)
	}
	return lp, true
}

// scanConstructs rejects bodies using constructs outside the SPMD model:
// goroutines, defers, channel operations, selects, and closures (a loop
// inside a closure runs in an unknown context; a closure inside a loop
// may capture and escape per-iteration state).
func (a *analyzer) scanConstructs(sh *loopShape) (string, bool) {
	var reason string
	ast.Inspect(sh.body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			reason = "go statement in body"
		case *ast.DeferStmt:
			reason = "defer in body"
		case *ast.SendStmt:
			reason = "channel send in body"
		case *ast.SelectStmt:
			reason = "select in body"
		case *ast.FuncLit:
			reason = "function literal in body"
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				reason = "channel receive in body"
			}
		}
		return reason == ""
	})
	return reason, reason != ""
}

// earlyExit asks the function CFG whether any transfer statement inside
// the loop body leaves the loop: a successor that is the function exit
// or a statement outside the loop's span means the trip count is
// data-dependent (break, return, goto out, panic). Transfers that stay
// inside the span (continue, a nested loop's break, a switch break) are
// fine — the satellite-1 labeled-edge modeling makes these precise.
func (a *analyzer) earlyExit(sh *loopShape, loop ast.Stmt) (string, bool) {
	var reason string
	ast.Inspect(sh.body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		stmt, ok := n.(ast.Stmt)
		if !ok {
			return true
		}
		switch s := stmt.(type) {
		case *ast.ReturnStmt, *ast.BranchStmt:
		case *ast.ExprStmt:
			// panic/os.Exit nodes edge to Exit; anything else is linear.
			if node := a.graph.NodeFor(s); node != nil {
				for _, succ := range node.Succs {
					if succ.Stmt == nil {
						reason = "panic in body"
						return false
					}
				}
			}
			return true
		default:
			return true
		}
		node := a.graph.NodeFor(stmt)
		if node == nil {
			reason = "unmodelled control transfer"
			return false
		}
		for _, succ := range node.Succs {
			if succ.Stmt == nil {
				reason = describeTransfer(stmt) + " leaves the function"
				return false
			}
			if !within(succ.Stmt.Pos(), loop) {
				reason = describeTransfer(stmt) + " leaves the loop"
				return false
			}
		}
		return true
	})
	return reason, reason != ""
}

func describeTransfer(s ast.Stmt) string {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return "return"
	case *ast.BranchStmt:
		if s.Label != nil {
			return s.Tok.String() + " " + s.Label.Name
		}
		return s.Tok.String()
	default:
		return "transfer"
	}
}

// localKind classifies a body-local variable's relationship to shared
// memory.
type localKind int

const (
	localPrivate localKind = iota // fresh per-iteration storage or a value copy
	localRowView                  // an allowlisted iteration-distinct view (Matrix.Row(i))
	localAlias                    // pointer-shaped local aliasing outer memory
)

// writtenMem records one piece of shared memory the loop writes, for
// the call-aliasing check: the root object of the written chain, the
// field the chain goes through (empty for a plain slice), and — for
// row-view writes — the accessor call that is exempt from the check.
type writtenMem struct {
	root   types.Object
	field  string
	exempt *ast.CallExpr
}

// checkWrites is the dependence core: every write in the body must be
// provably private to one iteration, an iteration-distinct slot of a
// shared slice, or a recognized reduction update of a single shared
// scalar accumulator.
func (a *analyzer) checkWrites(sh *loopShape) (*Reduction, []writtenMem, string, bool) {
	locals, rowInits := a.classifyLocals(sh)

	type scalarWrite struct {
		obj   types.Object
		stmts []ast.Stmt
	}
	var sharedScalars []*scalarWrite
	recordScalar := func(obj types.Object, stmt ast.Stmt) {
		for _, sw := range sharedScalars {
			if sw.obj == obj {
				sw.stmts = append(sw.stmts, stmt)
				return
			}
		}
		sharedScalars = append(sharedScalars, &scalarWrite{obj: obj, stmts: []ast.Stmt{stmt}})
	}

	var writtenBases []string
	var mems []writtenMem
	memSeen := map[string]bool{}
	recordMem := func(m writtenMem, key string) {
		if !memSeen[key] {
			memSeen[key] = true
			mems = append(mems, m)
		}
	}
	var reason string
	fail := func(r string) { reason = r }

	// viewWrite records a write inside the row view init built: it stays
	// in this iteration's row, but other calls receiving the view's
	// owner could still read it.
	viewWrite := func(init *ast.CallExpr) {
		if owner := a.info.ObjectOf(RootIdent(init.Fun)); owner != nil {
			recordMem(writtenMem{root: owner, exempt: init}, "view:"+owner.Name())
		}
	}

	// argWrite places an argument that a slice writer's call writes the
	// elements of: this iteration's row view, built in the call or held
	// by a local, or a body-local private slice.
	argWrite := func(arg ast.Expr, call *ast.CallExpr) {
		switch x := ast.Unparen(arg).(type) {
		case *ast.CallExpr:
			if a.isRowViewCall(x, sh) {
				viewWrite(x)
				return
			}
		case *ast.Ident:
			if obj := a.info.ObjectOf(x); obj != nil && DeclaredWithin(obj, sh.body) {
				switch locals[obj] {
				case localPrivate:
					return
				case localRowView:
					viewWrite(rowInits[obj])
					return
				}
			}
		}
		fail(fmt.Sprintf("%s writes the elements of %q, which is not this iteration's row", a.exprString(call.Fun), a.exprString(arg)))
	}

	// classifyTarget dispatches one write-target expression.
	var classifyTarget func(lhs ast.Expr, stmt ast.Stmt)
	classifyTarget = func(lhs ast.Expr, stmt ast.Stmt) {
		if reason != "" {
			return
		}
		switch lhs := lhs.(type) {
		case *ast.Ident:
			if lhs.Name == "_" {
				return
			}
			obj := a.info.ObjectOf(lhs)
			if obj == nil {
				fail(fmt.Sprintf("write to unresolved %q", lhs.Name))
				return
			}
			if obj == sh.indexObj {
				fail(fmt.Sprintf("loop index %q is mutated in the body", lhs.Name))
				return
			}
			if obj == sh.valueObj {
				return // writing the range value copy is iteration-private
			}
			if DeclaredWithin(obj, sh.body) {
				return // body-local: fresh storage each iteration
			}
			recordScalar(obj, stmt)
		case *ast.IndexExpr:
			base, idx := lhs.X, lhs.Index
			baseStr, simple := a.simpleExpr(base)
			if !simple {
				fail(fmt.Sprintf("write through compound expression %q", a.exprString(base)))
				return
			}
			root := a.info.ObjectOf(RootIdent(base))
			if root == nil {
				fail(fmt.Sprintf("write through unresolved base %q", baseStr))
				return
			}
			if t := a.info.TypeOf(base); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					fail(fmt.Sprintf("write to map %q", baseStr))
					return
				}
			}
			if DeclaredWithin(root, sh.body) {
				switch locals[root] {
				case localPrivate:
					return
				case localRowView:
					viewWrite(rowInits[root])
					return
				default:
					fail(fmt.Sprintf("write through %q, a local alias of shared memory", baseStr))
					return
				}
			}
			if root == sh.valueObj {
				// Range value of pointer-shaped element type: writes reach
				// shared backing memory through an unprovable alias.
				fail(fmt.Sprintf("write through range element %q aliases the ranged data", baseStr))
				return
			}
			if !a.injectiveIndex(idx, []types.Object{sh.indexObj}, sh.body) {
				fail(fmt.Sprintf("cannot prove iteration-distinct write slots for %s[%s]", baseStr, a.exprString(idx)))
				return
			}
			if !slices.Contains(writtenBases, baseStr) {
				writtenBases = append(writtenBases, baseStr)
			}
			field := ""
			if dot := strings.LastIndex(baseStr, "."); dot >= 0 {
				field = baseStr[dot+1:]
			}
			recordMem(writtenMem{root: root, field: field}, "slot:"+baseStr)
		case *ast.SelectorExpr:
			root := a.info.ObjectOf(RootIdent(lhs))
			if root != nil && (DeclaredWithin(root, sh.body) && locals[root] == localPrivate || root == sh.valueObj) {
				return // field of a private value copy
			}
			fail(fmt.Sprintf("write to shared field %q", a.exprString(lhs)))
		case *ast.StarExpr:
			fail(fmt.Sprintf("write through pointer %q", a.exprString(lhs)))
		case *ast.ParenExpr:
			classifyTarget(lhs.X, stmt)
		default:
			fail(fmt.Sprintf("unmodelled write target %q", a.exprString(lhs)))
		}
	}

	ast.Inspect(sh.body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				classifyTarget(lhs, n)
			}
		case *ast.IncDecStmt:
			classifyTarget(n.X, n)
		case *ast.CallExpr:
			if params, ok := a.purity.sliceWriterCall(a.info, n); ok {
				for _, k := range params {
					argWrite(n.Args[k], n)
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				// Taking an address creates an untracked alias.
				if root := a.info.ObjectOf(RootIdent(n.X)); root != nil && !DeclaredWithin(root, sh.body) {
					fail(fmt.Sprintf("address of shared %q taken in body", a.exprString(n.X)))
				}
			}
		}
		return reason == ""
	})
	if reason != "" {
		return nil, nil, reason, true
	}

	// Cross-iteration aliasing: every access to a written base must use
	// that base's one (injective) write index shape, so an iteration
	// only ever touches its own slot.
	for _, base := range writtenBases {
		if bad := a.foreignIndex(sh.body, base); bad != "" {
			return nil, nil, fmt.Sprintf("access to %s[%s] may alias another iteration's write to %s", base, bad, base), true
		}
	}

	// Shared scalars: exactly one reduction accumulator is in the model;
	// anything else is a carried dependence.
	if len(sharedScalars) == 0 {
		return nil, mems, "", false
	}
	if len(sharedScalars) > 1 {
		names := make([]string, len(sharedScalars))
		for i, sw := range sharedScalars {
			names[i] = fmt.Sprintf("%q", sw.obj.Name())
		}
		return nil, nil, fmt.Sprintf("multiple shared scalars written each iteration (%s)", strings.Join(names, ", ")), true
	}
	sw := sharedScalars[0]
	red, why := a.recognizeReduction(sw.obj, sw.stmts, sh)
	if red == nil {
		return nil, nil, fmt.Sprintf("shared scalar %q: %s", sw.obj.Name(), why), true
	}
	return red, mems, "", false
}

// checkCallAliasing closes the caller/callee gap the write analysis
// alone leaves open: the body may write s.Force[i] and call s.forceOn(i)
// — safe only if the callee never reads Force. For every written shared
// memory, any call whose receiver or arguments reach the written root is
// rejected unless the write went through a field and the callee's
// transitive field-read set provably excludes that field. Row-view
// accessor calls themselves are exempt (they are how the view exists).
func (a *analyzer) checkCallAliasing(sh *loopShape, mems []writtenMem) (string, bool) {
	if len(mems) == 0 {
		return "", false
	}
	var reason string
	ast.Inspect(sh.body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, m := range mems {
			if m.exempt == call {
				return true
			}
		}
		if tv, ok := a.info.Types[call.Fun]; ok && tv.IsType() {
			return true // conversions carry values, not aliases
		}
		// Root objects the call can reach: the receiver chain and every
		// argument chain.
		var roots []types.Object
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if r := a.info.ObjectOf(RootIdent(sel.X)); r != nil {
				roots = append(roots, r)
			}
		}
		for _, arg := range call.Args {
			if r := a.info.ObjectOf(RootIdent(arg)); r != nil {
				roots = append(roots, r)
			}
		}
		for _, m := range mems {
			for _, r := range roots {
				if r != m.root {
					continue
				}
				if m.field == "" {
					reason = fmt.Sprintf("written %q is passed to %s, which may read another iteration's slot", m.root.Name(), a.exprString(call.Fun))
					return false
				}
				callee := staticCallee(a.info, call)
				if callee == nil || a.purity.readsField(callee, m.field) {
					reason = fmt.Sprintf("%s receives %q while the loop writes its %q field", a.exprString(call.Fun), m.root.Name(), m.field)
					return false
				}
			}
		}
		return true
	})
	return reason, reason != ""
}

// classifyLocals assigns a localKind to every pointer-shaped variable
// declared in the body, from its initializer: fresh allocations are
// private, allowlisted row accessors are iteration-distinct views, and
// anything else pointer-shaped is a taint-carrying alias.
func (a *analyzer) classifyLocals(sh *loopShape) (map[types.Object]localKind, map[types.Object]*ast.CallExpr) {
	out := map[types.Object]localKind{}
	rowInits := map[types.Object]*ast.CallExpr{}
	classifyInit := func(obj types.Object, rhs ast.Expr) {
		if obj == nil {
			return
		}
		if !pointerShaped(obj.Type()) {
			out[obj] = localPrivate // value copy
			return
		}
		switch rhs := rhs.(type) {
		case nil:
			out[obj] = localPrivate // var x []T — nil until locally grown
		case *ast.CallExpr:
			if id, ok := rhs.Fun.(*ast.Ident); ok {
				if b, isB := a.info.Uses[id].(*types.Builtin); isB && (b.Name() == "make" || b.Name() == "new" || b.Name() == "append") {
					out[obj] = localPrivate
					return
				}
			}
			if a.isRowViewCall(rhs, sh) {
				out[obj] = localRowView
				rowInits[obj] = rhs
				return
			}
			out[obj] = localAlias
		case *ast.CompositeLit:
			out[obj] = localPrivate
		case *ast.UnaryExpr:
			if rhs.Op == token.AND {
				if _, isLit := rhs.X.(*ast.CompositeLit); isLit {
					out[obj] = localPrivate
					return
				}
			}
			out[obj] = localAlias
		default:
			out[obj] = localAlias
		}
	}
	ast.Inspect(sh.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := a.info.Defs[id]
				if obj == nil || !DeclaredWithin(obj, sh.body) {
					continue
				}
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				classifyInit(obj, rhs)
			}
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						obj := a.info.Defs[name]
						var rhs ast.Expr
						if i < len(vs.Values) {
							rhs = vs.Values[i]
						}
						classifyInit(obj, rhs)
					}
				}
			}
		case *ast.RangeStmt:
			// Nested range key/value vars are fresh per inner iteration.
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
					if obj := a.info.Defs[id]; obj != nil {
						if pointerShaped(obj.Type()) {
							out[obj] = localAlias // range value aliasing elements
						} else {
							out[obj] = localPrivate
						}
					}
				}
			}
		}
		return true
	})
	return out, rowInits
}

// rowViewAllowlist names module accessors returning iteration-disjoint
// views when called with the loop index — seeded, like parcvet's
// apimatch tables, from the module's own APIs.
var rowViewAllowlist = map[string]bool{
	"parc751/internal/kernels.Matrix.Row": true,
}

// isRowViewCall matches `m.Row(i)`-style calls from the allowlist whose
// sole argument is exactly the loop index.
func (a *analyzer) isRowViewCall(call *ast.CallExpr, sh *loopShape) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 1 {
		return false
	}
	arg, ok := call.Args[0].(*ast.Ident)
	if !ok || sh.indexObj == nil || a.info.Uses[arg] != sh.indexObj {
		return false
	}
	fn, ok := a.info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	return rowViewAllowlist[fn.Pkg().Path()+"."+recvTypeName(recv.Type())+"."+fn.Name()]
}

func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// pointerShaped reports whether values of t share backing memory when
// copied (slices, pointers, maps — the alias carriers).
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// OwnSlot is the iteration-distinctness test of parcpar's dependence
// analysis, exported so parcvet's sharedwrite asks the same question of
// worksharing bodies. It reports whether the element write w, made in the
// body of a loop whose iteration variables are index, stays in its own
// iteration: w's index is injective in the iteration (injectiveIndex),
// and every index the body applies to w's base is the one shape the body
// writes that base with (foreignIndex).
func OwnSlot(info *types.Info, fset *token.FileSet, body *ast.BlockStmt, index []types.Object, w *ast.IndexExpr) bool {
	a := &analyzer{info: info, fset: fset}
	base, ok := a.simpleExpr(w.X)
	return ok && a.injectiveIndex(w.Index, index, body) && a.foreignIndex(body, base) == ""
}

// foreignIndex returns the first index the body applies to base that is
// not the one index shape the body writes base with — an access that
// may land on another iteration's slot — or "" when every access stays
// on the written slot. Two write shapes are foreign to each other even
// when each is injective alone: with xs[i] and xs[i+1] both written,
// iterations i and i+1 write the same slot.
func (a *analyzer) foreignIndex(body *ast.BlockStmt, base string) string {
	shape, bad := "", ""
	ast.Inspect(body, func(n ast.Node) bool {
		var targets []ast.Expr
		switch n := n.(type) {
		case *ast.AssignStmt:
			targets = n.Lhs
		case *ast.IncDecStmt:
			targets = []ast.Expr{n.X}
		}
		for _, t := range targets {
			if ie, ok := ast.Unparen(t).(*ast.IndexExpr); ok {
				if b, _ := a.simpleExpr(ie.X); b == base {
					switch s := a.exprString(ie.Index); {
					case shape == "":
						shape = s
					case s != shape && bad == "":
						bad = s
					}
				}
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		if ie, ok := n.(*ast.IndexExpr); ok && bad == "" {
			if bs, _ := a.simpleExpr(ie.X); bs == base && a.exprString(ie.Index) != shape {
				bad = a.exprString(ie.Index)
			}
		}
		return bad == ""
	})
	return bad
}

// injectiveIndex reports whether idx provably hits a different slot in
// every iteration of a loop whose iteration variables are index: an
// index variable itself, one ± a compile-time constant, or the row-major
// delinearized form i*S + j where j is an inner canonical loop of body
// over [0, S).
func (a *analyzer) injectiveIndex(idx ast.Expr, index []types.Object, body *ast.BlockStmt) bool {
	isConst := func(e ast.Expr) bool {
		_, ok := a.constIntValue(e)
		return ok
	}
	if a.isIndex(idx, index) {
		return true
	}
	be, ok := ast.Unparen(idx).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch be.Op {
	case token.SUB:
		return a.isIndex(be.X, index) && isConst(be.Y)
	case token.ADD:
		return a.isIndex(be.X, index) && isConst(be.Y) || a.isIndex(be.Y, index) && isConst(be.X) ||
			a.isDelinearized(be.X, be.Y, index, body) || a.isDelinearized(be.Y, be.X, index, body)
	}
	return false
}

// isIndex reports whether e is one of the iteration variables.
func (a *analyzer) isIndex(e ast.Expr, index []types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && a.info.Uses[id] != nil && slices.Contains(index, a.info.Uses[id])
}

// isDelinearized matches mul = i*S (or S*i) and rest = j, where j is
// the index of an inner canonical loop `for j := 0; j < S'; j++` with
// S' textually identical to S — the row-major proof that i*S+j is
// injective over the (i, j) iteration space.
func (a *analyzer) isDelinearized(mul, rest ast.Expr, index []types.Object, body *ast.BlockStmt) bool {
	me, ok := ast.Unparen(mul).(*ast.BinaryExpr)
	if !ok || me.Op != token.MUL {
		return false
	}
	var stride ast.Expr
	switch {
	case a.isIndex(me.X, index):
		stride = me.Y
	case a.isIndex(me.Y, index):
		stride = me.X
	default:
		return false
	}
	jIdent, ok := ast.Unparen(rest).(*ast.Ident)
	if !ok {
		return false
	}
	jObj := a.info.Uses[jIdent]
	if jObj == nil {
		return false
	}
	strideStr := a.exprString(stride)
	// Find the inner canonical loop binding j with bound == stride.
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		fs, ok := n.(*ast.ForStmt)
		if !ok {
			return true
		}
		inner, okc := a.canonicalize(fs)
		if !okc || inner.indexObj != jObj || !inner.loZero {
			return true
		}
		if a.exprString(inner.hi) == strideStr {
			found = true
		}
		return !found
	})
	return found
}

// recognizeReduction checks that every write to acc is a sum-class or
// product-class update and that acc is not otherwise read in the body.
func (a *analyzer) recognizeReduction(acc types.Object, writes []ast.Stmt, sh *loopShape) (*Reduction, string) {
	basic, ok := acc.Type().Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsNumeric == 0 {
		return nil, "written each iteration and not a numeric accumulator"
	}
	kind := ""
	merge := func(k string) bool {
		if kind == "" || kind == k {
			kind = k
			return true
		}
		return false
	}
	for _, w := range writes {
		k, okw := a.reductionKind(acc, w)
		if !okw {
			return nil, "written each iteration in a form that is not a recognized reduction update"
		}
		if !merge(k) {
			return nil, "mixed sum and product updates"
		}
	}
	// Reads outside the update statements re-observe a stale accumulator.
	inUpdate := func(pos token.Pos) bool {
		for _, w := range writes {
			if within(pos, w) {
				return true
			}
		}
		return false
	}
	bad := false
	ast.Inspect(sh.body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && a.info.Uses[id] == acc && !inUpdate(id.Pos()) {
			bad = true
		}
		return !bad
	})
	if bad {
		return nil, "read outside its own reduction updates"
	}
	return &Reduction{Name: acc.Name(), Type: acc.Type().String(), Kind: kind}, ""
}

// reductionKind classifies one update statement of acc.
func (a *analyzer) reductionKind(acc types.Object, s ast.Stmt) (string, bool) {
	mentionsAcc := func(e ast.Expr) bool { return a.mentionsObj(e, acc) }
	switch s := s.(type) {
	case *ast.IncDecStmt:
		return "sum", true
	case *ast.AssignStmt:
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return "", false
		}
		rhs := s.Rhs[0]
		switch s.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN:
			return "sum", !mentionsAcc(rhs)
		case token.MUL_ASSIGN:
			return "product", !mentionsAcc(rhs)
		case token.ASSIGN:
			be, ok := ast.Unparen(rhs).(*ast.BinaryExpr)
			if !ok {
				return "", false
			}
			var kind string
			switch be.Op {
			case token.ADD:
				kind = "sum"
			case token.MUL:
				kind = "product"
			default:
				return "", false
			}
			x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
			if id, isID := x.(*ast.Ident); isID && a.info.Uses[id] == acc && !mentionsAcc(y) {
				return kind, true
			}
			if id, isID := y.(*ast.Ident); isID && a.info.Uses[id] == acc && !mentionsAcc(x) {
				return kind, true
			}
		}
	}
	return "", false
}

// simpleExpr renders base when it is an ident or a selector chain of
// idents — the only base forms the array-identity model tracks.
func (a *analyzer) simpleExpr(e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.SelectorExpr:
		if base, ok := a.simpleExpr(e.X); ok {
			return base + "." + e.Sel.Name, true
		}
	case *ast.IndexExpr:
		// xs[v][u]-style nested bases: identify by full text; the outer
		// index becomes part of the identity, and the write-index rules
		// still apply to the innermost index.
		if base, ok := a.simpleExpr(e.X); ok {
			return base + "[" + a.exprString(e.Index) + "]", true
		}
	}
	return "", false
}

// exprString renders an expression for shape comparison and messages.
func (a *analyzer) exprString(e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, a.fset, e); err != nil {
		return "?"
	}
	return buf.String()
}
