//go:build go1.21

// Header-declared loop variables are shared by every iteration before
// Go 1.22; the build line sets this file's language version to go1.21.

package loopindexcapture

import (
	"parc751/internal/ptask"
	"parc751/internal/pyjama"
)

// rangeValue: the range variable is shared by every iteration.
func rangeValue(rt *ptask.Runtime, xs []int) {
	for _, x := range xs {
		t := ptask.Run(rt, func() (int, error) {
			return x * 2, nil // want `captures loop variable x`
		})
		t.Notify(func(int, error) {})
	}
}

// goInRegion: a goroutine launched from a parallel-construct body
// captures the shared index.
func goInRegion(xs []int) {
	pyjama.Parallel(2, func(tc *pyjama.TC) {
		tc.Master(func() {
			for i := 0; i < len(xs); i++ {
				go func() {
					xs[i] = 0 // want `captures loop variable i`
				}()
			}
		})
	})
}
