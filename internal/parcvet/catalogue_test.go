package parcvet

import (
	"fmt"
	"go/types"
	"sort"
	"strings"
	"testing"

	"parc751/internal/parcvet/loader"
)

// syncCallbacks are the exported APIs that take a func yet need no
// catalogue row: each runs its func synchronously on the caller, so the
// closure is just more of the calling code.
var syncCallbacks = map[callee]string{
	{pkgCore, "", "Catch"}:           "runs fn on the calling goroutine to turn its panic into an error",
	{pkgCore, "Parker", "ParkUntil"}: "evaluates cond on the parking goroutine around each wait",
}

// TestCatalogue checks the construct catalogue against the real APIs,
// typechecked by the parcvet loader: every row (and exemption) names a
// declared function or method, every slot is a func-typed parameter with
// at least its iteration parameters, and every exported function or
// method of the concurrency packages that takes a func has a slot for
// each func parameter or is in syncCallbacks.
func TestCatalogue(t *testing.T) {
	root := moduleRootOrSkip(t)
	l, err := loader.New(root)
	if err != nil {
		t.Fatal(err)
	}
	// One probe file imports every package a row names.
	paths := map[string]bool{}
	for c := range catalogue {
		paths[c.pkg] = true
	}
	var src strings.Builder
	src.WriteString("package probe\n")
	for p := range paths {
		fmt.Fprintf(&src, "import _ %q\n", p)
	}
	probe, err := l.CheckSource("parcvettest/probe", map[string]string{"probe.go": src.String()})
	if err != nil {
		t.Fatal(err)
	}
	pkgs := map[string]*types.Package{}
	for _, p := range probe.Types.Imports() {
		pkgs[p.Path()] = p
	}

	for c, row := range catalogue {
		fn := declaredFunc(pkgs[c.pkg], c)
		if fn == nil {
			t.Errorf("row %s names no declared function or method", c)
			continue
		}
		sig := fn.Type().(*types.Signature)
		for _, s := range row.slots {
			body := funcParam(sig, s.arg)
			switch {
			case body == nil:
				t.Errorf("row %s: argument %d is not a func-typed parameter", c, s.arg)
			case s.rest && !(sig.Variadic() && s.arg == sig.Params().Len()-1):
				t.Errorf("row %s: argument %d is marked rest but is not the variadic parameter", c, s.arg)
			case body.Params().Len() < s.iters:
				t.Errorf("row %s: argument %d names %d iteration parameters, its func has %d", c, s.arg, s.iters, body.Params().Len())
			case (s.role == guiBody) != (s.gui != ""):
				t.Errorf("row %s: argument %d needs a description exactly when it is GUI-delivered", c, s.arg)
			}
		}
	}
	for c := range syncCallbacks {
		if declaredFunc(pkgs[c.pkg], c) == nil {
			t.Errorf("exemption %s names no declared function or method", c)
		}
		if _, ok := catalogue[c]; ok {
			t.Errorf("%s is both a catalogue row and an exemption", c)
		}
	}

	var missing []string
	for _, path := range []string{pkgPyjama, pkgPtask, pkgCore, pkgEventloop, pkgAndroid} {
		pkg := pkgs[path]
		if pkg == nil {
			t.Errorf("%s was not loaded", path)
			continue
		}
		check := func(c callee, fn *types.Func) {
			sig := fn.Type().(*types.Signature)
			if !fn.Exported() || syncCallbacks[c] != "" {
				return
			}
			for i := range sig.Params().Len() {
				if _, ok := slotOf(c, i); !ok && funcParam(sig, i) != nil {
					missing = append(missing, fmt.Sprintf("%s argument %d", c, i))
				}
			}
		}
		for _, name := range pkg.Scope().Names() {
			switch obj := pkg.Scope().Lookup(name).(type) {
			case *types.Func:
				check(callee{pkg: path, name: name}, obj)
			case *types.TypeName:
				if named, ok := obj.Type().(*types.Named); ok && obj.Exported() {
					for i := range named.NumMethods() {
						check(callee{path, name, named.Method(i).Name()}, named.Method(i))
					}
				}
			}
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s is a func-typed parameter with no catalogue slot: add a row, or exempt it with a reason", m)
	}
}

// declaredFunc resolves c to the function or method pkg declares.
func declaredFunc(pkg *types.Package, c callee) *types.Func {
	if pkg == nil {
		return nil
	}
	if c.recv == "" {
		fn, _ := pkg.Scope().Lookup(c.name).(*types.Func)
		return fn
	}
	tn, _ := pkg.Scope().Lookup(c.recv).(*types.TypeName)
	if tn == nil {
		return nil
	}
	named, _ := tn.Type().(*types.Named)
	for i := range named.NumMethods() {
		if m := named.Method(i); m.Name() == c.name {
			return m
		}
	}
	return nil
}

// funcParam returns the func type of sig's parameter i (the element type
// for a variadic one), or nil if that parameter is not func-typed.
func funcParam(sig *types.Signature, i int) *types.Signature {
	if i >= sig.Params().Len() {
		return nil
	}
	t := sig.Params().At(i).Type()
	if sig.Variadic() && i == sig.Params().Len()-1 {
		t = t.(*types.Slice).Elem()
	}
	f, _ := t.Underlying().(*types.Signature)
	return f
}
