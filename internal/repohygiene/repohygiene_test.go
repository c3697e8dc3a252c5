package repohygiene

import (
	"testing"
	"testing/fstest"

	"parc751/internal/report"
)

func findRule(vs []report.Finding, rule string) []report.Finding {
	var out []report.Finding
	for _, v := range vs {
		if v.Rule == rule {
			out = append(out, v)
		}
	}
	return out
}

func cleanTree() []File {
	return []File{
		{Path: "src/Main.java", Content: []byte("class Main {}\n")},
		{Path: "src/worker/Pool.java", Content: []byte("class Pool {}\n")},
		{Path: "test/MainTest.java", Content: []byte("class MainTest {}\n")},
		{Path: "bench/SortBench.java", Content: []byte("class SortBench {}\n")},
		{Path: "scripts/run.sh", Content: []byte("#!/bin/sh\necho hi\n")},
		{Path: "doc/README.txt", Content: []byte("hello\n")},
	}
}

func TestCleanTreePasses(t *testing.T) {
	vs := Audit(PARCDefaults(), cleanTree())
	if len(vs) != 0 {
		t.Fatalf("clean tree has violations: %v", vs)
	}
}

func TestCommittedArtifacts(t *testing.T) {
	files := append(cleanTree(),
		File{Path: "src/Main.class"},
		File{Path: "lib.jar"},
	)
	vs := Audit(PARCDefaults(), files)
	arts := findRule(vs, "committed-artifact")
	if len(arts) != 2 {
		t.Fatalf("artifact violations = %d: %v", len(arts), vs)
	}
	for _, v := range arts {
		if v.Severity != report.Error {
			t.Errorf("artifact severity = %v", v.Severity)
		}
	}
}

func TestCommittedBuildDir(t *testing.T) {
	files := append(cleanTree(), File{Path: "build/output/Main.class"})
	vs := Audit(PARCDefaults(), files)
	if len(findRule(vs, "committed-build-dir")) == 0 {
		t.Fatalf("build dir not flagged: %v", vs)
	}
}

func TestBackslashPaths(t *testing.T) {
	files := append(cleanTree(), File{Path: `src\windows\Thing.java`})
	vs := Audit(PARCDefaults(), files)
	if len(findRule(vs, "path-separator")) != 1 {
		t.Fatalf("backslash path not flagged: %v", vs)
	}
}

func TestCRLFInScriptIsError(t *testing.T) {
	files := append(cleanTree(),
		File{Path: "scripts/deploy.sh", Content: []byte("#!/bin/sh\r\necho win\r\n")})
	vs := Audit(PARCDefaults(), files)
	crlf := findRule(vs, "crlf-line-endings")
	if len(crlf) != 1 || crlf[0].Severity != report.Error {
		t.Fatalf("script CRLF handling wrong: %v", vs)
	}
}

func TestCRLFInSourceIsWarning(t *testing.T) {
	files := append(cleanTree(),
		File{Path: "src/Windowsy.java", Content: []byte("class W {}\r\n")})
	vs := Audit(PARCDefaults(), files)
	crlf := findRule(vs, "crlf-line-endings")
	if len(crlf) != 1 || crlf[0].Severity != report.Warning {
		t.Fatalf("source CRLF handling wrong: %v", vs)
	}
}

func TestMissingShebang(t *testing.T) {
	files := append(cleanTree(),
		File{Path: "scripts/build.sh", Content: []byte("echo no shebang\n")})
	vs := Audit(PARCDefaults(), files)
	if len(findRule(vs, "missing-shebang")) != 1 {
		t.Fatalf("missing shebang not flagged: %v", vs)
	}
}

func TestHardcodedWindowsPath(t *testing.T) {
	files := append(cleanTree(),
		File{Path: "src/Config.java", Content: []byte(`String dir = "C:\\Users\\student";` + "\n")})
	vs := Audit(PARCDefaults(), files)
	if len(findRule(vs, "hardcoded-windows-path")) != 1 {
		t.Fatalf("drive-letter path not flagged: %v", vs)
	}
}

func TestCaseCollision(t *testing.T) {
	files := append(cleanTree(),
		File{Path: "src/util.java"},
		File{Path: "src/Util.java"},
	)
	vs := Audit(PARCDefaults(), files)
	if len(findRule(vs, "case-collision")) != 1 {
		t.Fatalf("case collision not flagged: %v", vs)
	}
}

func TestMissingSrcLayout(t *testing.T) {
	files := []File{{Path: "Main.java"}, {Path: "stuff/Helper.java"}}
	vs := Audit(PARCDefaults(), files)
	layout := findRule(vs, "layout-separation")
	if len(layout) == 0 {
		t.Fatalf("missing src/ not flagged: %v", vs)
	}
	foundError := false
	for _, v := range layout {
		if v.Severity == report.Error {
			foundError = true
		}
	}
	if !foundError {
		t.Fatal("missing src/ should be an error")
	}
}

func TestUnknownTopLevelDirWarns(t *testing.T) {
	files := append(cleanTree(), File{Path: "random/Notes.java"})
	vs := Audit(PARCDefaults(), files)
	if len(findRule(vs, "layout-separation")) != 1 {
		t.Fatalf("stray top-level dir not flagged: %v", vs)
	}
}

func TestSeveritySortOrder(t *testing.T) {
	files := append(cleanTree(),
		File{Path: "random/x.txt"},   // warning
		File{Path: "src/Main.class"}, // error
	)
	vs := Audit(PARCDefaults(), files)
	if len(vs) < 2 {
		t.Fatalf("violations = %v", vs)
	}
	if vs[0].Severity != report.Error {
		t.Fatalf("errors must sort first: %v", vs)
	}
}

func TestErrorsFilter(t *testing.T) {
	files := append(cleanTree(),
		File{Path: "random/x.txt"},
		File{Path: "src/Main.class"},
	)
	vs := Audit(PARCDefaults(), files)
	es := report.Errors(vs)
	for _, v := range es {
		if v.Severity != report.Error {
			t.Fatalf("Errors returned %v", v)
		}
	}
	if len(es) == 0 || len(es) == len(vs) {
		t.Fatalf("filter wrong: %d of %d", len(es), len(vs))
	}
}

func TestAuditFS(t *testing.T) {
	fsys := fstest.MapFS{
		"src/Main.java":    {Data: []byte("class Main {}\n")},
		"test/T.java":      {Data: []byte("class T {}\n")},
		"build/Main.class": {Data: []byte{0xCA, 0xFE}},
	}
	vs, err := AuditFS(PARCDefaults(), fsys, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(findRule(vs, "committed-artifact")) != 1 {
		t.Fatalf("fs audit missed artifact: %v", vs)
	}
	if len(findRule(vs, "committed-build-dir")) != 1 {
		t.Fatalf("fs audit missed build dir: %v", vs)
	}
}

func BenchmarkAudit(b *testing.B) {
	files := cleanTree()
	for i := 0; i < 200; i++ {
		files = append(files, File{Path: "src/gen/File" + string(rune('a'+i%26)) + ".java",
			Content: []byte("class X {}\n")})
	}
	cfg := PARCDefaults()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Audit(cfg, files)
	}
}
