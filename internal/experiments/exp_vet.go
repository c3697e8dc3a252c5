package experiments

import (
	"fmt"
	"strings"

	"parc751/internal/parcvet"
	"parc751/internal/parcvet/loader"
	"parc751/internal/report"
)

// a7Buggy is a student-style submission seeding one instance of every
// misuse class the parcvet suite checks: a blocking GUI handler, a racy
// captured write, a dropped future, a divergent barrier, a non-neutral
// reduction identity, and a stale loop-index capture.
const a7Buggy = `package student

import (
	"time"

	"parc751/internal/eventloop"
	"parc751/internal/ptask"
	"parc751/internal/pyjama"
	"parc751/internal/reduction"
)

func Render(rt *ptask.Runtime, loop *eventloop.Loop) {
	t := ptask.Run(rt, func() (int, error) { return 42, nil })
	_ = loop.InvokeLater(func() {
		_, _ = t.Result()
		time.Sleep(time.Millisecond)
	})
}

func Sum(xs []int) int {
	sum := 0
	pyjama.Parallel(4, func(tc *pyjama.TC) {
		tc.For(len(xs), pyjama.Static(0), func(i int) {
			sum += xs[i]
		})
	})
	return sum
}

func FireAndForget(rt *ptask.Runtime) {
	ptask.Run(rt, func() (int, error) { return 1, nil })
}

func Sync() {
	pyjama.Parallel(4, func(tc *pyjama.TC) {
		if tc.ThreadNum() == 0 {
			tc.Barrier()
		}
	})
}

func Total(xs []int) int {
	r := reduction.Reducer[int]{
		Identity: func() int { return 1 },
		Combine:  func(a, b int) int { return a + b },
	}
	return reduction.Fold(r, xs)
}

func Spawn(rt *ptask.Runtime, xs []int) {
	var i int
	for i = 0; i < len(xs); i++ {
		t := ptask.Run(rt, func() (int, error) { return xs[i], nil })
		t.Notify(func(int, error) {})
	}
}
`

// a7Fixed is the same submission with every bug corrected the way the
// course teaches: offload + Notify, reduction instead of a shared
// accumulator, consumed futures, unconditional barriers, a neutral
// identity, and a shadowed index.
const a7Fixed = `package student

import (
	"parc751/internal/eventloop"
	"parc751/internal/ptask"
	"parc751/internal/pyjama"
	"parc751/internal/reduction"
)

func Render(rt *ptask.Runtime, loop *eventloop.Loop) {
	_ = loop.InvokeLater(func() {
		t := ptask.Run(rt, func() (int, error) { return 42, nil })
		t.Notify(func(int, error) {})
	})
}

func Sum(xs []int) int {
	return pyjama.ParallelForReduce(4, len(xs), pyjama.Static(0), reduction.Sum[int](),
		func(i, acc int) int { return acc + xs[i] })
}

func FireAndForget(rt *ptask.Runtime) {
	t := ptask.Run(rt, func() (int, error) { return 1, nil })
	t.Notify(func(int, error) {})
}

func Sync() {
	pyjama.Parallel(4, func(tc *pyjama.TC) {
		tc.Barrier()
	})
}

func Total(xs []int) int {
	r := reduction.Reducer[int]{
		Identity: func() int { return 0 },
		Combine:  func(a, b int) int { return a + b },
	}
	return reduction.Fold(r, xs)
}

func Spawn(rt *ptask.Runtime, xs []int) {
	for i := 0; i < len(xs); i++ {
		i := i
		t := ptask.Run(rt, func() (int, error) { return xs[i], nil })
		t.Notify(func(int, error) {})
	}
}
`

// runA7 typechecks the two canned submissions against the real module
// packages and runs the full analyzer suite over each. The findings are
// exact-shape properties: every misuse class fires on the buggy variant,
// and the corrected variant is completely clean (the suite's
// false-positive budget on known-good code is zero).
func runA7(cfg Config, res *Result) {
	var b strings.Builder

	root, err := loader.FindModuleRoot(".")
	if err != nil {
		res.ok("module_root_found", false)
		fmt.Fprintf(&b, "cannot locate module root: %v\n", err)
		res.Output = b.String()
		return
	}
	res.ok("module_root_found", true)

	analyze := func(label, src string) []report.Finding {
		findings, err := parcvet.AnalyzeSource(root, "a7/student", map[string]string{"student.go": src}, nil)
		if err != nil {
			res.ok("typecheck_"+label, false)
			fmt.Fprintf(&b, "%s variant failed to typecheck: %v\n", label, err)
			return nil
		}
		res.ok("typecheck_"+label, true)
		return findings
	}

	buggy := analyze("buggy", a7Buggy)
	fixed := analyze("fixed", a7Fixed)

	byRule := map[string]int{}
	for _, f := range buggy {
		byRule[f.Rule]++
	}

	b.WriteString("rule               buggy  fixed\n")
	fixedByRule := map[string]int{}
	for _, f := range fixed {
		fixedByRule[f.Rule]++
	}
	for _, an := range parcvet.Analyzers() {
		caught := byRule[an.Name] > 0
		res.ok("caught_"+an.Name, caught)
		fmt.Fprintf(&b, "%-18s %5d  %5d\n", an.Name, byRule[an.Name], fixedByRule[an.Name])
	}
	res.ok("fixed_variant_clean", len(fixed) == 0)
	res.metric("buggy_findings", float64(len(buggy)))
	res.metric("fixed_findings", float64(len(fixed)))

	b.WriteString("\nbuggy-variant findings:\n")
	for _, f := range buggy {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	if len(fixed) > 0 {
		b.WriteString("\nUNEXPECTED fixed-variant findings:\n")
		for _, f := range fixed {
			fmt.Fprintf(&b, "  %s\n", f)
		}
	}
	res.Output = b.String()
}
