package parcvet

import (
	"maps"
	"path/filepath"
	"strings"
	"testing"

	"parc751/internal/parcvet/analysis"
	"parc751/internal/parcvet/loader"
	"parc751/internal/parcvet/vettest"
)

// TestGolden runs each analyzer alone over its fixture package under
// testdata/src/<name> and checks the findings against the fixtures' `//
// want` comments: every want must be matched by a finding on its line,
// and every finding must be expected by a want. good.go files carry no
// wants, so any finding there is a false positive and fails the test.
func TestGolden(t *testing.T) {
	root := moduleRootOrSkip(t)
	for _, an := range Analyzers() {
		t.Run(an.Name, func(t *testing.T) {
			dir := filepath.Join(root, "internal", "parcvet", "testdata", "src", an.Name)
			l, err := loader.New(root)
			if err != nil {
				t.Fatal(err)
			}
			pkg, err := l.LoadDir(dir, "parcvettest/"+an.Name)
			if err != nil {
				t.Fatalf("loading fixture package: %v", err)
			}
			findings := AnalyzePackage(l, pkg, []*analysis.Analyzer{an})
			vettest.CheckWants(t, l.Fset(), pkg.Files, findings)
		})
	}
}

// TestSuppression checks the //parcvet:ignore contract on the suppress
// fixture: the well-formed directive silences its sharedwrite finding,
// the reason-less one is reported as malformed and silences nothing.
func TestSuppression(t *testing.T) {
	root := moduleRootOrSkip(t)
	l, err := loader.New(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join(root, "internal", "parcvet", "testdata", "src", "suppress"), "parcvettest/suppress")
	if err != nil {
		t.Fatal(err)
	}
	findings := AnalyzePackage(l, pkg, []*analysis.Analyzer{SharedWriteAnalyzer})

	var malformed, suppressedHit, unsuppressed int
	for _, f := range findings {
		switch {
		case f.Rule == "suppression":
			malformed++
		case strings.Contains(f.Detail, `"sum"`):
			suppressedHit++
		case strings.Contains(f.Detail, `"n"`):
			unsuppressed++
		}
	}
	if malformed != 1 {
		t.Errorf("want exactly 1 malformed-suppression finding, got %d in %v", malformed, findings)
	}
	if suppressedHit != 0 {
		t.Errorf("the justified //parcvet:ignore should silence the sum finding; got %v", findings)
	}
	if unsuppressed != 1 {
		t.Errorf("the reason-less directive must not suppress; want the n finding, got %v", findings)
	}
}

// TestLoopIndexCaptureSeverity pins what the golden wants cannot: a
// captured loop variable declared outside its loop is stale in every Go
// version and reported as an error, while a header variable captured in
// a pre-go1.22 file (pre122.go) is the teaching case, a warning.
func TestLoopIndexCaptureSeverity(t *testing.T) {
	root := moduleRootOrSkip(t)
	l, err := loader.New(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join(root, "internal", "parcvet", "testdata", "src", "loopindexcapture"), "parcvettest/loopindexcapture")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, f := range AnalyzePackage(l, pkg, []*analysis.Analyzer{LoopIndexCaptureAnalyzer}) {
		file, _, _ := strings.Cut(filepath.Base(f.Pos), ":")
		got[file+" "+f.Severity.String()]++
	}
	want := map[string]int{"bad.go error": 2, "pre122.go warning": 2}
	if !maps.Equal(got, want) {
		t.Errorf("findings by file and severity = %v, want %v", got, want)
	}
}

// TestAnalyzerMetadata keeps the suite's registry sane: unique names,
// non-empty docs, and ByName round-trips.
func TestAnalyzerMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, an := range Analyzers() {
		if an.Name == "" || an.Doc == "" || an.Run == nil {
			t.Errorf("analyzer %+v missing name/doc/run", an)
		}
		if seen[an.Name] {
			t.Errorf("duplicate analyzer name %q", an.Name)
		}
		seen[an.Name] = true
		got, err := ByName(an.Name)
		if err != nil || len(got) != 1 || got[0] != an {
			t.Errorf("ByName(%q) = %v, %v", an.Name, got, err)
		}
	}
	if _, err := ByName("nosuchpass"); err == nil {
		t.Error("ByName should reject unknown analyzer names")
	}
	if all, err := ByName(""); err != nil || len(all) != len(Analyzers()) {
		t.Errorf("ByName(\"\") should return the full suite, got %v, %v", all, err)
	}
}

func moduleRootOrSkip(t *testing.T) string {
	t.Helper()
	root, err := loader.FindModuleRoot(".")
	if err != nil {
		t.Skipf("no module root: %v", err)
	}
	return root
}
