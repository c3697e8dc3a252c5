// Package parcpar inverts parcvet: instead of detecting concurrency
// misuse in parallel code, it detects parallelization *opportunity* in
// sequential code. It reuses parcvet's stdlib-only loader, its
// statement-level CFG, and the shared report vocabulary, and adds three
// layers of its own:
//
//  1. a loop-carried dependence analysis (canonical loop forms, scalar
//     def-use across iterations, iteration-distinct slice writes with
//     row-major delinearization, sum-reduction recognition, early-exit
//     disqualification over the CFG, and conservative call purity),
//  2. a cost model calibrated the same way pyjama's schedule(auto)
//     calibrates — a committed probe table of per-operation-class costs
//     plus the fork-join overhead measured by the BENCH harness — that
//     separates worthwhile loops from ones the runtime would only slow
//     down, and
//  3. a textual rewriter that converts accepted loops to
//     pyjama.ParallelFor / pyjama.ParallelForReduce while preserving the
//     loop body byte-for-byte (comments included).
//
// Findings flow through internal/report with the parcvet/parcaudit exit
// convention. Every parcpar finding is a Warning: an opportunity (or a
// reasoned rejection) is advice, not an error, so a repo-wide run exits 0.
package parcpar

import (
	"go/ast"
	"sort"
	"strings"

	"parc751/internal/parcvet/loader"
	"parc751/internal/report"
)

// Class is the verdict for one candidate loop.
type Class int

// Classification lattice, ordered roughly by how far the loop got
// through the pipeline: shape → exits → dependences → purity → cost.
const (
	// ClassParallel: safe and worthwhile; rewrite to pyjama.ParallelFor.
	ClassParallel Class = iota
	// ClassReduction: safe and worthwhile with exactly one sum-class
	// accumulator; rewrite to pyjama.ParallelForReduce.
	ClassReduction
	// ClassEarlyExit: a break/return/goto makes the trip count
	// data-dependent.
	ClassEarlyExit
	// ClassDependence: a loop-carried dependence (shared scalar,
	// unprovable write slots, or cross-iteration read/write aliasing).
	ClassDependence
	// ClassImpure: the body calls something not provably pure, or uses a
	// construct (go, defer, channels, closures) outside the model.
	ClassImpure
	// ClassBelowThreshold: safe, but trip × body cost does not clear the
	// fork-join threshold.
	ClassBelowThreshold
)

// Rule names the report rule for each class.
func (c Class) Rule() string {
	switch c {
	case ClassParallel, ClassReduction:
		return "parallelizable"
	case ClassEarlyExit:
		return "earlyexit"
	case ClassDependence:
		return "dependence"
	case ClassImpure:
		return "impurity"
	default:
		return "belowthreshold"
	}
}

func (c Class) String() string {
	switch c {
	case ClassParallel:
		return "parallel"
	case ClassReduction:
		return "reduction"
	case ClassEarlyExit:
		return "earlyexit"
	case ClassDependence:
		return "dependence"
	case ClassImpure:
		return "impure"
	default:
		return "belowthreshold"
	}
}

// Reduction describes a recognized accumulator.
type Reduction struct {
	// Name is the accumulator variable's name.
	Name string
	// Type is the rendered accumulator type ("uint64", "float64", …).
	Type string
	// Kind is "sum" (+=, -=, ++, --, x = x + e — rewritable through
	// reduction.Sum) or "product" (recognized, reported, not rewritten).
	Kind string
}

// Loop is one classified candidate.
type Loop struct {
	// Stmt is the loop statement (*ast.ForStmt or *ast.RangeStmt).
	Stmt ast.Stmt
	// Func names the enclosing function ("MatMul", "(*Sys).Sweep").
	Func  string
	Class Class
	// Reason explains a rejection, or summarizes the opportunity.
	Reason string
	// Trip is the estimated (or exact, when constant) trip count.
	Trip int
	// TripExact reports whether Trip came from constant bounds.
	TripExact bool
	// BodyNs and TotalNs are the cost-model estimates.
	BodyNs  float64
	TotalNs float64
	// Sched is the suggested schedule expression ("pyjama.Static(0)" or
	// "pyjama.Auto()"). Set for accepted loops.
	Sched string
	// Red is non-nil for ClassReduction.
	Red *Reduction

	shape *loopShape
}

// Options configures an analysis run.
type Options struct {
	// Explain emits rejection findings (earlyexit/dependence/impurity/
	// belowthreshold) alongside opportunities. The default reports only
	// parallelizable loops, which keeps a repo-wide run readable.
	Explain bool
	// Table overrides the embedded probe table (nil = embedded).
	Table *ProbeTable
}

// Run loads the packages matched by patterns under moduleRoot and
// analyzes them, returning findings sorted by position.
func Run(moduleRoot string, patterns []string, opts Options) ([]report.Finding, error) {
	l, err := loader.New(moduleRoot)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.Load(patterns...)
	if err != nil {
		return nil, err
	}
	var out []report.Finding
	for _, pkg := range pkgs {
		_, fs := AnalyzePackage(l, pkg, opts)
		out = append(out, fs...)
	}
	return out, nil
}

// AnalyzePackage classifies every candidate loop in one loaded package
// and renders the findings. Loops come back in source order.
func AnalyzePackage(l *loader.Loader, pkg *loader.Package, opts Options) ([]Loop, []report.Finding) {
	a := newAnalyzer(l, pkg, opts)
	loops := a.analyzeAll()

	var out []report.Finding
	for i := range loops {
		lp := &loops[i]
		accepted := lp.Class == ClassParallel || lp.Class == ClassReduction
		if !accepted && !opts.Explain {
			continue
		}
		out = append(out, report.Finding{
			Tool:     "parcpar",
			Rule:     lp.Class.Rule(),
			Pos:      l.RelPos(lp.Stmt.Pos()),
			Severity: report.Warning,
			Detail:   lp.Reason,
		})
	}
	return loops, out
}

// newAnalyzer builds the per-package analysis state.
func newAnalyzer(l *loader.Loader, pkg *loader.Package, opts Options) *analyzer {
	table := opts.Table
	if table == nil {
		table = DefaultTable()
	}
	return &analyzer{
		l:      l,
		pkg:    pkg,
		info:   pkg.Info,
		fset:   l.Fset(),
		table:  table,
		purity: newPurity(l, pkg),
	}
}

// analyzeAll classifies every candidate loop in the package, in source
// order.
func (a *analyzer) analyzeAll() []Loop {
	var loops []Loop
	for _, f := range a.pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if a.usesParallelRuntime(fn) {
				continue // already-parallel code is parcvet's territory
			}
			loops = append(loops, a.classifyFunc(fn)...)
		}
	}
	sort.SliceStable(loops, func(i, j int) bool {
		return loops[i].Stmt.Pos() < loops[j].Stmt.Pos()
	})
	return loops
}

// funcName renders the function's display name, including a receiver.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	var b strings.Builder
	b.WriteString("(")
	writeTypeExpr(&b, fn.Recv.List[0].Type)
	b.WriteString(").")
	b.WriteString(fn.Name.Name)
	return b.String()
}

func writeTypeExpr(b *strings.Builder, e ast.Expr) {
	switch e := e.(type) {
	case *ast.Ident:
		b.WriteString(e.Name)
	case *ast.StarExpr:
		b.WriteString("*")
		writeTypeExpr(b, e.X)
	case *ast.IndexExpr:
		writeTypeExpr(b, e.X)
	case *ast.IndexListExpr:
		writeTypeExpr(b, e.X)
	default:
		b.WriteString("?")
	}
}
