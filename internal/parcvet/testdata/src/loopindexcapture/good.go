package loopindexcapture

import (
	"parc751/internal/ptask"
	"parc751/internal/pyjama"
)

// shadowed: the per-iteration copy breaks the capture.
func shadowed(rt *ptask.Runtime, xs []int) {
	var i int
	for i = 0; i < len(xs); i++ {
		i := i
		t := ptask.Run(rt, func() (int, error) { return xs[i], nil })
		t.Notify(func(int, error) {})
	}
}

// parameterised: the index arrives as a closure parameter, not a capture.
func parameterised(rt *ptask.Runtime, xs []int) {
	m := ptask.RunMulti(rt, len(xs), func(i int) (int, error) {
		return xs[i] * 2, nil
	})
	m.Notify(func([]int, error) {})
}

// worksharing: pyjama hands the index in, so there is nothing to capture.
func worksharing(xs []int) {
	pyjama.ParallelFor(2, len(xs), pyjama.Static(0), func(i int) {
		xs[i] *= 2
	})
}

// perIteration: since Go 1.22 a variable the loop header declares is
// per-iteration, so each task sees its own iteration's value.
func perIteration(rt *ptask.Runtime, xs []int) {
	for i := 0; i < len(xs); i++ {
		t := ptask.Run(rt, func() (int, error) { return xs[i], nil })
		t.Notify(func(int, error) {})
	}
	for _, x := range xs {
		t := ptask.Run(rt, func() (int, error) { return x * 2, nil })
		t.Notify(func(int, error) {})
	}
	pyjama.Parallel(2, func(tc *pyjama.TC) {
		tc.Master(func() {
			for i := 0; i < len(xs); i++ {
				go func() { xs[i] = 0 }()
			}
		})
	})
}
