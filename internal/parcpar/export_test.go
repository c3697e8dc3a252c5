package parcpar

import (
	"path/filepath"

	"parc751/internal/parcvet/loader"
)

// ForceParallel rewrites every loop of the package in srcDir that parcpar
// classifies as class into a pyjama.ParallelFor over the loop's own bound,
// as if it had been accepted, and returns the rewritten files (base name →
// source). The rewriter has no such mode; the round-trip test uses it to
// hand rejected loops to parcvet in parallel form.
func ForceParallel(moduleRoot, srcDir, importPath string, class Class) (map[string]string, error) {
	l, err := loader.New(moduleRoot)
	if err != nil {
		return nil, err
	}
	pkg, err := l.LoadDir(srcDir, importPath)
	if err != nil {
		return nil, err
	}
	a := newAnalyzer(l, pkg, Options{})
	var forced []Loop
	for _, lp := range a.analyzeAll() {
		if lp.Class == class {
			lp.Class, lp.Sched = ClassParallel, "pyjama.Static(0)"
			lp.shape.loZero = true // a loop from 1 keeps its dependence over [0, hi)
			forced = append(forced, lp)
		}
	}
	out := map[string]string{}
	for _, f := range pkg.Files {
		src, n, err := a.rewriteFile(f, forced, "", false)
		if err != nil {
			return nil, err
		}
		if n > 0 {
			out[filepath.Base(a.fset.File(f.Pos()).Name())] = string(src)
		}
	}
	return out, nil
}
