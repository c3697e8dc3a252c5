package parcpar

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sync"
)

// ProbeTable is the committed cost model: per-operation-class costs in
// nanoseconds plus the fork-join overhead of one pyjama parallel region,
// calibrated the same way pyjama's schedule(auto) calibrates — from
// measured probes, committed so analysis is deterministic across hosts.
// -calibrate regenerates a host-local table from live probes.
type ProbeTable struct {
	// Schema versions the table format.
	Schema string `json:"schema"`
	// Provenance records where ForkJoinNs came from.
	Provenance string `json:"provenance"`
	// ForkJoinNs is the measured cost of one empty pyjama.ParallelFor
	// region (fork + barrier + join).
	ForkJoinNs float64 `json:"fork_join_ns"`
	// WorthFactor scales ForkJoinNs into the accept threshold: a loop
	// must cost at least WorthFactor × ForkJoinNs sequentially before
	// parallelizing it can pay.
	WorthFactor float64 `json:"worth_factor"`
	// DefaultTrip is the assumed trip count when bounds are not
	// compile-time constants.
	DefaultTrip int `json:"default_trip"`
	// OpNs maps operation classes to per-op costs: int_arith,
	// float_arith, mem_index, branch, call_pure, stmt.
	OpNs map[string]float64 `json:"op_ns"`
}

// op returns the cost of one op class; unknown classes cost the stmt
// baseline so a malformed table degrades instead of zeroing out.
func (t *ProbeTable) op(class string) float64 {
	if c, ok := t.OpNs[class]; ok {
		return c
	}
	return t.OpNs["stmt"]
}

//go:embed probe_table.json
var probeTableJSON []byte

var (
	defaultTableOnce sync.Once
	defaultTable     *ProbeTable
)

// DefaultTable parses the embedded probe table. The embed is part of the
// build, so a parse failure is a programming error worth a panic.
func DefaultTable() *ProbeTable {
	defaultTableOnce.Do(func() {
		t := &ProbeTable{}
		if err := json.Unmarshal(probeTableJSON, t); err != nil {
			panic(fmt.Sprintf("parcpar: embedded probe_table.json is invalid: %v", err))
		}
		defaultTable = t
	})
	return defaultTable
}

// estimate prices one candidate loop: the trip count (exact when bounds
// are compile-time constants, DefaultTrip otherwise), the per-iteration
// body cost from the probe table, and the suggested schedule (Static for
// uniform bodies, Auto when per-iteration work can vary).
func (a *analyzer) estimate(sh *loopShape) (trip int, exact bool, bodyNs float64, sched string) {
	trip, exact = sh.tripConst, sh.tripConst > 0
	if !exact {
		trip = a.table.DefaultTrip
	}
	cw := &costWalker{a: a, info: a.info}
	bodyNs = cw.stmts(sh.body.List)
	sched = "pyjama.Static(0)"
	if a.variableWork(sh) {
		sched = "pyjama.Auto()"
	}
	return trip, exact, bodyNs, sched
}

// variableWork detects per-iteration work imbalance: a conditional in
// the body, or an inner loop whose bound depends on the outer index
// (triangular iteration spaces), both of which favor schedule(auto).
func (a *analyzer) variableWork(sh *loopShape) bool {
	varies := false
	ast.Inspect(sh.body, func(n ast.Node) bool {
		if varies {
			return false
		}
		switch n := n.(type) {
		case *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt:
			varies = true
		case *ast.ForStmt:
			if n.Cond != nil && a.mentionsObj(n.Cond, sh.indexObj) {
				varies = true
			}
		}
		return !varies
	})
	return varies
}

// costWalker prices statements and expressions against the probe table.
// It carries its own types.Info so callee bodies from other packages
// price correctly, and bounds recursion through the analyzer's memo.
type costWalker struct {
	a     *analyzer
	info  *types.Info
	depth int
}

// calleeDepthLimit bounds transitive callee pricing; deeper calls fall
// back to the flat call_pure cost.
const calleeDepthLimit = 4

func (w *costWalker) stmts(list []ast.Stmt) float64 {
	var ns float64
	for _, s := range list {
		ns += w.stmt(s)
	}
	return ns
}

func (w *costWalker) stmt(s ast.Stmt) float64 {
	t := w.a.table
	switch s := s.(type) {
	case nil:
		return 0
	case *ast.BlockStmt:
		return w.stmts(s.List)
	case *ast.ForStmt:
		iter := w.stmt(s.Body) + w.stmt(s.Post) + w.expr(s.Cond) + t.op("branch")
		return t.op("stmt") + float64(w.tripOf(s))*iter
	case *ast.RangeStmt:
		return t.op("stmt") + float64(w.tripOf(s))*(w.stmt(s.Body)+t.op("branch"))
	case *ast.IfStmt:
		ns := t.op("branch") + w.expr(s.Cond) + w.stmt(s.Init)
		// Average the two arms: half the iterations take each.
		arm := w.stmt(s.Body)
		if s.Else != nil {
			arm += w.stmt(s.Else)
		}
		return ns + arm*0.5
	case *ast.SwitchStmt:
		ns := t.op("branch") + w.expr(s.Tag) + w.stmt(s.Init)
		var arms float64
		n := 0
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				arms += w.stmts(cc.Body)
				n++
			}
		}
		if n > 0 {
			ns += arms / float64(n)
		}
		return ns
	case *ast.TypeSwitchStmt:
		return t.op("branch") + w.stmt(s.Assign) + w.stmt(s.Body)
	case *ast.CaseClause:
		return w.stmts(s.Body)
	case *ast.AssignStmt:
		ns := t.op("stmt")
		for _, e := range s.Lhs {
			ns += w.expr(e)
		}
		for _, e := range s.Rhs {
			ns += w.expr(e)
		}
		if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
			ns += w.arithCost(s.Lhs[0]) // compound assign does one op
		}
		return ns
	case *ast.IncDecStmt:
		return t.op("stmt") + w.expr(s.X) + t.op("int_arith")
	case *ast.ExprStmt:
		return t.op("stmt") + w.expr(s.X)
	case *ast.ReturnStmt:
		ns := t.op("stmt")
		for _, e := range s.Results {
			ns += w.expr(e)
		}
		return ns
	case *ast.DeclStmt:
		ns := t.op("stmt")
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						ns += w.expr(v)
					}
				}
			}
		}
		return ns
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt)
	case *ast.BranchStmt:
		return t.op("branch")
	default:
		return t.op("stmt")
	}
}

// tripOf estimates a nested loop's trip count: constant bounds when
// provable, DefaultTrip otherwise.
func (w *costWalker) tripOf(s ast.Stmt) int {
	t := w.a.table
	switch s := s.(type) {
	case *ast.ForStmt:
		if cond, ok := s.Cond.(*ast.BinaryExpr); ok && (cond.Op == token.LSS || cond.Op == token.LEQ) {
			if hi, ok := w.constInt(cond.Y); ok {
				lo := 0
				if init, ok := s.Init.(*ast.AssignStmt); ok && len(init.Rhs) == 1 {
					if l, ok := w.constInt(init.Rhs[0]); ok {
						lo = l
					}
				}
				if hi > lo {
					return hi - lo
				}
			}
		}
	case *ast.RangeStmt:
		if tv := w.info.TypeOf(s.X); tv != nil {
			if arr, ok := tv.Underlying().(*types.Array); ok {
				return int(arr.Len())
			}
		}
	}
	return t.DefaultTrip
}

func (w *costWalker) constInt(e ast.Expr) (int, bool) {
	tv, ok := w.info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	v, exact := constant.Int64Val(tv.Value)
	if !exact {
		return 0, false
	}
	return int(v), true
}

func (w *costWalker) expr(e ast.Expr) float64 {
	t := w.a.table
	switch e := e.(type) {
	case nil:
		return 0
	case *ast.BinaryExpr:
		return w.arithCost(e.X) + w.expr(e.X) + w.expr(e.Y)
	case *ast.UnaryExpr:
		return w.arithCost(e.X) + w.expr(e.X)
	case *ast.IndexExpr:
		return t.op("mem_index") + w.expr(e.X) + w.expr(e.Index)
	case *ast.SelectorExpr:
		// Field offsets fold into mem_index on the enclosing access.
		return w.expr(e.X)
	case *ast.StarExpr:
		return t.op("mem_index") + w.expr(e.X)
	case *ast.ParenExpr:
		return w.expr(e.X)
	case *ast.CallExpr:
		return w.call(e)
	case *ast.SliceExpr:
		return t.op("mem_index") + w.expr(e.X) + w.expr(e.Low) + w.expr(e.High)
	case *ast.CompositeLit:
		ns := t.op("stmt")
		for _, el := range e.Elts {
			ns += w.expr(el)
		}
		return ns
	case *ast.KeyValueExpr:
		return w.expr(e.Value)
	default:
		return 0
	}
}

// arithCost prices one arithmetic/logic op by the operand's type class.
func (w *costWalker) arithCost(operand ast.Expr) float64 {
	t := w.a.table
	if tv := w.info.TypeOf(operand); tv != nil {
		if b, ok := tv.Underlying().(*types.Basic); ok && b.Info()&(types.IsFloat|types.IsComplex) != 0 {
			return t.op("float_arith")
		}
	}
	return t.op("int_arith")
}

// call prices a call: conversions are free, builtins cost one int op,
// module callees are priced by their own bodies (memoized, depth-capped),
// and everything else costs the flat call_pure overhead.
func (w *costWalker) call(call *ast.CallExpr) float64 {
	t := w.a.table
	ns := 0.0
	for _, arg := range call.Args {
		ns += w.expr(arg)
	}
	if tv, ok := w.info.Types[call.Fun]; ok && tv.IsType() {
		return ns // conversion
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := w.info.Uses[id].(*types.Builtin); isB {
			return ns + t.op("int_arith")
		}
	}
	fn := staticCallee(w.info, call)
	if fn == nil || w.depth >= calleeDepthLimit {
		return ns + t.op("call_pure")
	}
	return ns + t.op("call_pure") + w.a.calleeBodyNs(fn, w.depth+1)
}

// calleeBodyNs prices a module callee's whole body, memoized per
// function. Non-module and bodiless callees price at zero beyond the
// flat call overhead the caller already added.
func (a *analyzer) calleeBodyNs(fn *types.Func, depth int) float64 {
	if a.costMemo == nil {
		a.costMemo = map[*types.Func]float64{}
	}
	if ns, ok := a.costMemo[fn]; ok {
		return ns
	}
	a.costMemo[fn] = 0 // cycle guard: recursive calls price as flat calls
	decl, info := a.purity.findDecl(fn)
	if decl == nil || decl.Body == nil || info == nil {
		return 0
	}
	cw := &costWalker{a: a, info: info, depth: depth}
	ns := cw.stmts(decl.Body.List)
	a.costMemo[fn] = ns
	return ns
}
