package parcpar_test

// The round trip between the two tools: parcpar decides whether a
// sequential loop may run in parallel, parcvet whether parallel code
// races, and both ask parcpar.OwnSlot whether an element write stays in
// its own iteration. So every loop parcpar rewrites must be parcvet-clean
// afterwards, and every loop it rejects for a dependence must be flagged
// by sharedwrite once forced into parallel form. The test lives in the
// external package because parcvet imports parcpar.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"parc751/internal/parcpar"
	"parc751/internal/parcvet"
	"parc751/internal/parcvet/analysis"
	"parc751/internal/parcvet/loader"
)

func autogenSeq(t *testing.T) (root, dir string) {
	t.Helper()
	root, err := loader.FindModuleRoot(".")
	if err != nil {
		t.Skipf("no module root: %v", err)
	}
	return root, filepath.Join(root, "internal", "parcpar", "autogen", "seq")
}

// TestRewrittenLoopsAreVetClean runs the whole parcvet suite over the
// rewriter's output for autogen/seq.
func TestRewrittenLoopsAreVetClean(t *testing.T) {
	root, seq := autogenSeq(t)
	outDir := t.TempDir()
	written, err := parcpar.GenerateDir(root, seq, outDir, "par")
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, name := range written {
		src, err := os.ReadFile(filepath.Join(outDir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = string(src)
	}
	findings, err := parcvet.AnalyzeSource(root, "roundtrip/par", files, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("rewritten loop is not parcvet-clean: %s", f)
	}
}

// TestDependenceLoopsFlaggedInParallelForm forces every loop parcpar
// rejects with ClassDependence into a ParallelFor and requires a
// sharedwrite finding inside each rewritten function.
func TestDependenceLoopsFlaggedInParallelForm(t *testing.T) {
	root, seq := autogenSeq(t)
	files, err := parcpar.ForceParallel(root, seq, "roundtrip/seq", parcpar.ClassDependence)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := parcvet.AnalyzeSource(root, "roundtrip/forced", files, []*analysis.Analyzer{parcvet.SharedWriteAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{} // "file:line" of each finding
	for _, f := range findings {
		parts := strings.Split(f.Pos, ":")
		flagged[parts[0]+":"+parts[1]] = true
	}

	// Each function the forced rewrite touched must hold a finding.
	var forced []string
	fset := token.NewFileSet()
	for name, src := range files {
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			start, end := fset.Position(d.Pos()), fset.Position(d.End())
			if !ok || !strings.Contains(src[start.Offset:end.Offset], "pyjama.ParallelFor(") {
				continue
			}
			forced = append(forced, fd.Name.Name)
			hit := false
			for line := start.Line; line <= end.Line; line++ {
				hit = hit || flagged[name+":"+strconv.Itoa(line)]
			}
			if !hit {
				t.Errorf("%s: parcpar rejects its loop for a dependence, but sharedwrite is silent on the parallel form:\n%s",
					fd.Name.Name, src[start.Offset:end.Offset])
			}
		}
	}
	sort.Strings(forced)
	want := []string{"Histogram", "PrefixSum", "RunningMax", "Shift", "maxNeighbor"}
	if strings.Join(forced, " ") != strings.Join(want, " ") {
		t.Errorf("forced rewrite covered %v, want the dependence loops %v", forced, want)
	}
}
