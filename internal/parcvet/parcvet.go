package parcvet

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"parc751/internal/parcvet/analysis"
	"parc751/internal/parcvet/loader"
	"parc751/internal/report"
)

// Analyzers returns the full suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		GUIBlockAnalyzer,
		SharedWriteAnalyzer,
		LostFutureAnalyzer,
		BarrierMismatchAnalyzer,
		ReductionPurityAnalyzer,
		LoopIndexCaptureAnalyzer,
	}
}

// ByName resolves a comma-separated analyzer selection; an empty
// selection means the full suite.
func ByName(names string) ([]*analysis.Analyzer, error) {
	if strings.TrimSpace(names) == "" {
		return Analyzers(), nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run loads the packages matched by patterns under the module rooted at
// moduleRoot and applies the analyzers (nil means all), returning the
// surviving findings sorted by position.
func Run(moduleRoot string, patterns []string, analyzers []*analysis.Analyzer) ([]report.Finding, error) {
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
		out = append(out, AnalyzePackage(l, pkg, analyzers)...)
	}
	return out, nil
}

// AnalyzeSource typechecks an in-memory package (files: name → source)
// against the module at moduleRoot and analyzes it — the entry point the
// golden tests and the A7 experiment use for canned student-style code.
func AnalyzeSource(moduleRoot, importPath string, files map[string]string, analyzers []*analysis.Analyzer) ([]report.Finding, error) {
	l, err := loader.New(moduleRoot)
	if err != nil {
		return nil, err
	}
	pkg, err := l.CheckSource(importPath, files)
	if err != nil {
		return nil, err
	}
	return AnalyzePackage(l, pkg, analyzers), nil
}

// AnalyzePackage runs the analyzers over one loaded package, applies
// //parcvet:ignore suppressions, and converts the diagnostics into the
// shared course-report vocabulary.
func AnalyzePackage(l *loader.Loader, pkg *loader.Package, analyzers []*analysis.Analyzer) []report.Finding {
	if analyzers == nil {
		analyzers = Analyzers()
	}
	fset := l.Fset()
	supp := collectSuppressions(fset, pkg.Files, l.RelPos)

	type located struct {
		posn token.Position
		f    report.Finding
	}
	var found []located
	insp := analysis.NewInspector(pkg.Files)
	for _, an := range analyzers {
		an := an
		pass := &analysis.Pass{
			Analyzer:  an,
			Fset:      fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Inspect:   insp,
			Report: func(d analysis.Diagnostic) {
				posn := fset.Position(d.Pos)
				if supp.matches(an.Name, posn) {
					return
				}
				sev := an.Severity
				if d.HasSeverity {
					sev = d.Severity
				}
				found = append(found, located{posn, report.Finding{
					Tool: "parcvet", Rule: an.Name,
					Pos: l.RelPos(d.Pos), Severity: sev, Detail: d.Message,
				}})
			},
		}
		// An analyzer error is reported in-band rather than aborting the
		// whole run: the other analyzers' findings are still good.
		if err := an.Run(pass); err != nil {
			found = append(found, located{token.Position{}, report.Finding{
				Tool: "parcvet", Rule: an.Name, Pos: pkg.Path,
				Severity: report.Error, Detail: fmt.Sprintf("analyzer failed: %v", err),
			}})
		}
	}
	sort.SliceStable(found, func(i, j int) bool {
		a, b := found[i].posn, found[j].posn
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	out := append([]report.Finding(nil), supp.malformed...)
	for _, lf := range found {
		out = append(out, lf.f)
	}
	return out
}
