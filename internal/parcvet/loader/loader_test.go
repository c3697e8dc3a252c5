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
