package loader

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoadSkipsNestedModules: "./..." stops at a directory holding its
// own go.mod, as go build ./... does, so a nested module is never
// type-checked as a package of the outer one.
func TestLoadSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":           "module example.com/outer\n",
		"a/a.go":           "package a\n\nfunc A() int { return 1 }\n",
		"inner/go.mod":     "module example.com/inner\n",
		"inner/inner.go":   "package inner\n\nimport \"example.com/inner/sub\"\n\nvar X = sub.Y\n",
		"inner/sub/sub.go": "package sub\n\nvar Y = 2\n",
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := New(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("Load(./...): %v", err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	if len(paths) != 1 || paths[0] != "example.com/outer/a" {
		t.Fatalf("Load(./...) = %v, want only [example.com/outer/a]", paths)
	}
}

// TestFileVersions: files are typechecked at go.mod's language version,
// and a //go:build line can downgrade one file.
func TestFileVersions(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":   "module example.com/m\n\ngo 1.24\n",
		"p/new.go": "package p\n\nvar A = 1\n",
		"p/old.go": "//go:build go1.21\n\npackage p\n\nvar B = 2\n",
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := New(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"new.go": "go1.24", "old.go": "go1.21"}
	for _, f := range pkgs[0].Files {
		name := filepath.Base(l.Fset().Position(f.Pos()).Filename)
		if got := pkgs[0].Info.FileVersions[f]; got != want[name] {
			t.Errorf("%s: file version %q, want %q", name, got, want[name])
		}
	}
}
