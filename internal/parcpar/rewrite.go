package parcpar

import (
	"fmt"
	"go/ast"
	"go/format"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"parc751/internal/parcvet/loader"
)

// The rewriter is deliberately textual: it patches byte ranges of the
// original source instead of re-printing the AST, so loop bodies survive
// byte-for-byte — comments, alignment, and all. Only three spans of an
// accepted loop change: the header (for-clause through `{`), the closing
// `}`, and — for range loops with a value variable — one inserted
// binding line. The import block is the one region rebuilt wholesale.

// patch replaces src[start:end) with text.
type patch struct {
	start, end int
	text       string
}

func applyPatches(src []byte, patches []patch) []byte {
	sort.Slice(patches, func(i, j int) bool { return patches[i].start > patches[j].start })
	out := append([]byte(nil), src...)
	for _, p := range patches {
		out = append(out[:p.start], append([]byte(p.text), out[p.end:]...)...)
	}
	return out
}

// Rewritable reports whether the loop's classification supports the
// mechanical rewrite: accepted, zero-based, and (for reductions) a
// sum-class accumulator of an unqualified basic type — the forms
// pyjama.ParallelFor / ParallelForReduce + reduction.Sum express
// directly.
func (lp *Loop) Rewritable() bool {
	if lp.shape == nil || !lp.shape.loZero {
		return false
	}
	switch lp.Class {
	case ClassParallel:
		return true
	case ClassReduction:
		return lp.Red != nil && lp.Red.Kind == "sum" && !strings.Contains(lp.Red.Type, ".")
	}
	return false
}

// Fix rewrites every rewritable loop of the matched packages in place.
// It returns the module-relative paths of the files it changed.
func Fix(moduleRoot string, patterns []string, opts Options) ([]string, error) {
	l, err := loader.New(moduleRoot)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.Load(patterns...)
	if err != nil {
		return nil, err
	}
	var changed []string
	for _, pkg := range pkgs {
		a := newAnalyzer(l, pkg, opts)
		loops := a.analyzeAll()
		for _, f := range pkg.Files {
			out, n, err := a.rewriteFile(f, loops, "", false)
			if err != nil {
				return nil, err
			}
			if n == 0 {
				continue
			}
			name := a.fset.File(f.Pos()).Name()
			if err := os.WriteFile(name, out, 0o644); err != nil {
				return nil, err
			}
			rel := name
			if r, ok := strings.CutPrefix(name, moduleRoot+"/"); ok {
				rel = r
			}
			changed = append(changed, rel)
		}
	}
	sort.Strings(changed)
	return changed, nil
}

// GenerateDir analyzes the package in srcDir and writes a rewritten copy
// of every file containing at least one rewrite into outDir, renamed to
// package pkgName and stamped as generated. It returns the written file
// names (base names, sorted).
func GenerateDir(moduleRoot, srcDir, outDir, pkgName string) ([]string, error) {
	l, err := loader.New(moduleRoot)
	if err != nil {
		return nil, err
	}
	absSrc, err := filepath.Abs(srcDir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(moduleRoot, absSrc)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("source dir %s is outside module %s", srcDir, moduleRoot)
	}
	importPath := l.ModulePath + "/" + filepath.ToSlash(rel)
	pkg, err := l.LoadDir(absSrc, importPath)
	if err != nil {
		return nil, err
	}
	a := newAnalyzer(l, pkg, Options{})
	loops := a.analyzeAll()
	var written []string
	for _, f := range pkg.Files {
		out, n, err := a.rewriteFile(f, loops, pkgName, true)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			continue
		}
		base := filepath.Base(a.fset.File(f.Pos()).Name())
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(outDir, base), out, 0o644); err != nil {
			return nil, err
		}
		written = append(written, base)
	}
	sort.Strings(written)
	return written, nil
}

// rewriteFile rewrites f's rewritable loops, returning the formatted
// output and the number of loops rewritten (0 = leave the file alone).
// pkgName, when non-empty, renames the package; generated stamps the
// file with the standard generated-code header.
func (a *analyzer) rewriteFile(f *ast.File, loops []Loop, pkgName string, generated bool) ([]byte, int, error) {
	tf := a.fset.File(f.Pos())
	var mine []*Loop
	for i := range loops {
		lp := &loops[i]
		if lp.Rewritable() && tf == a.fset.File(lp.Stmt.Pos()) {
			mine = append(mine, lp)
		}
	}
	if len(mine) == 0 {
		return nil, 0, nil
	}
	src, err := os.ReadFile(tf.Name())
	if err != nil {
		return nil, 0, err
	}
	r := &rewriter{src: src, tf: tf}

	var patches []patch
	needReduction := false
	for _, lp := range mine {
		ps, err := r.loopPatches(lp)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %v", tf.Name(), err)
		}
		patches = append(patches, ps...)
		if lp.Class == ClassReduction {
			needReduction = true
		}
	}
	patches = append(patches, r.importPatch(f, needReduction))
	if pkgName != "" && pkgName != f.Name.Name {
		patches = append(patches, patch{r.off(f.Name.Pos()), r.off(f.Name.End()), pkgName})
	}
	out := applyPatches(src, patches)
	if generated {
		out = append([]byte("// Code generated by parcpar; DO NOT EDIT.\n\n"), out...)
	}
	formatted, err := format.Source(out)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: rewrite does not format: %v\n%s", tf.Name(), err, out)
	}
	return formatted, len(mine), nil
}

type rewriter struct {
	src []byte
	tf  *token.File
}

func (r *rewriter) off(p token.Pos) int { return r.tf.Offset(p) }

// text returns the original source of one node.
func (r *rewriter) text(n ast.Node) string {
	return string(r.src[r.off(n.Pos()):r.off(n.End())])
}

// lineIndent returns the leading whitespace of the line containing off.
func (r *rewriter) lineIndent(off int) string {
	start := off
	for start > 0 && r.src[start-1] != '\n' {
		start--
	}
	end := start
	for end < len(r.src) && (r.src[end] == ' ' || r.src[end] == '\t') {
		end++
	}
	return string(r.src[start:end])
}

// loopPatches builds the header and closing-brace patches for one loop.
func (r *rewriter) loopPatches(lp *Loop) ([]patch, error) {
	sh := lp.shape
	var body *ast.BlockStmt
	var bound string
	switch s := lp.Stmt.(type) {
	case *ast.ForStmt:
		body = s.Body
		bound = r.text(sh.hi)
	case *ast.RangeStmt:
		body = s.Body
		bound = "len(" + r.text(sh.rangeX) + ")"
	default:
		return nil, fmt.Errorf("unrewritable loop statement %T", lp.Stmt)
	}
	idx := r.indexName(lp)
	headStart := r.off(lp.Stmt.Pos())
	headEnd := r.off(body.Lbrace) + 1
	braceOff := r.off(body.Rbrace)
	indent := r.lineIndent(headStart)

	var head, tail string
	switch lp.Class {
	case ClassParallel:
		head = fmt.Sprintf("pyjama.ParallelFor(runtime.GOMAXPROCS(0), %s, %s, func(%s int) {", bound, lp.Sched, idx)
		tail = "})"
	case ClassReduction:
		acc, typ := lp.Red.Name, lp.Red.Type
		head = fmt.Sprintf("%s += pyjama.ParallelForReduce(runtime.GOMAXPROCS(0), %s, %s, reduction.Sum[%s](), func(%s int, %s %s) %s {",
			acc, bound, lp.Sched, typ, idx, acc, typ, typ)
		tail = "\treturn " + acc + "\n" + indent + "})"
	default:
		return nil, fmt.Errorf("loop classified %s is not rewritable", lp.Class)
	}
	patches := []patch{
		{headStart, headEnd, head},
		{braceOff, braceOff + 1, tail},
	}
	if sh.isRange && sh.value != nil {
		binding := "\n" + indent + "\t" + sh.value.Name + " := " + r.text(sh.rangeX) + "[" + idx + "]"
		patches = append(patches, patch{headEnd, headEnd, binding})
	}
	return patches, nil
}

// indexName returns the loop's index variable name, synthesizing a
// non-colliding one for `for _, v := range xs` / `for range xs` forms.
func (r *rewriter) indexName(lp *Loop) string {
	if lp.shape.index != nil {
		return lp.shape.index.Name
	}
	loopSrc := r.text(lp.Stmt)
	for _, cand := range []string{"i", "j", "k", "ii", "idx", "pfi"} {
		re := regexp.MustCompile(`\b` + cand + `\b`)
		if !re.MatchString(loopSrc) {
			return cand
		}
	}
	return "pfIdx"
}

// importPatch rebuilds the file's import block with runtime, pyjama,
// and (for reductions) reduction added, in the standard two sorted
// groups: stdlib first, module paths second. Comments inside the import
// block are not preserved.
func (r *rewriter) importPatch(f *ast.File, needReduction bool) patch {
	need := map[string]bool{
		"runtime":                 true,
		"parc751/internal/pyjama": true,
	}
	if needReduction {
		need["parc751/internal/reduction"] = true
	}
	type imp struct{ name, path string }
	var imps []imp
	seen := map[string]bool{}
	for _, spec := range f.Imports {
		path := strings.Trim(spec.Path.Value, `"`)
		name := ""
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imps = append(imps, imp{name, path})
		seen[path] = true
	}
	for path := range need {
		if !seen[path] {
			imps = append(imps, imp{"", path})
		}
	}
	var std, mod []imp
	for _, im := range imps {
		if strings.HasPrefix(im.path, "parc751") {
			mod = append(mod, im)
		} else {
			std = append(std, im)
		}
	}
	for _, group := range [][]imp{std, mod} {
		sort.Slice(group, func(i, j int) bool { return group[i].path < group[j].path })
	}
	var b strings.Builder
	b.WriteString("import (\n")
	render := func(group []imp) {
		for _, im := range group {
			b.WriteString("\t")
			if im.name != "" {
				b.WriteString(im.name + " ")
			}
			b.WriteString(`"` + im.path + `"` + "\n")
		}
	}
	render(std)
	if len(std) > 0 && len(mod) > 0 {
		b.WriteString("\n")
	}
	render(mod)
	b.WriteString(")")

	// Replace the existing import decl, or insert after the package
	// clause when there is none.
	for _, decl := range f.Decls {
		if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.IMPORT {
			return patch{r.off(gd.Pos()), r.off(gd.End()), b.String()}
		}
	}
	at := r.off(f.Name.End())
	return patch{at, at, "\n\n" + b.String()}
}
