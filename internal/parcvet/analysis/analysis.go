// Package analysis is a deliberately small, stdlib-only reimplementation
// of the golang.org/x/tools/go/analysis vocabulary: Analyzer, Pass,
// Diagnostic, SuggestedFix. The build environment for this repository is
// hermetic (no module proxy), so vendoring x/tools is not an option; the
// parcvet analyzers are written against this shim instead. The shapes
// match the upstream API closely enough that porting an analyzer between
// the two is mechanical — that is the point: students read real go/vet
// analyzer sources and ours side by side in the lab.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"parc751/internal/report"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, flags, and
	// //parcvet:ignore comments. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description shown by `parcvet -list`:
	// first line is the summary, the rest explains the invariant.
	Doc string
	// Severity is the default severity of this analyzer's diagnostics.
	Severity report.Severity
	// Run executes the check over one package.
	Run func(*Pass) error
}

// Pass carries one package's worth of material to an analyzer, mirroring
// x/tools' analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Inspect is the shared traversal helper, the counterpart of the
	// upstream `inspect` pass result every analyzer Requires.
	Inspect *Inspector
	// Report delivers a diagnostic.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with the analyzer's default
// severity.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one positioned finding.
type Diagnostic struct {
	Pos token.Pos
	// Message is the human-readable explanation.
	Message string
	// Severity overrides the analyzer default when set explicitly via
	// HasSeverity.
	Severity    report.Severity
	HasSeverity bool
}
