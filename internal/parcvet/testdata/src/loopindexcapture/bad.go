// Package loopindexcapture holds misuse fixtures: async closures
// capturing the loop variable of an enclosing loop.
package loopindexcapture

import (
	"context"

	"parc751/internal/ptask"
)

// sharedIndex: i is declared outside the loop, so every task sees the
// final value — stale in every Go version.
func sharedIndex(rt *ptask.Runtime, xs []int) {
	var i int
	for i = 0; i < len(xs); i++ {
		t := ptask.Run(rt, func() (int, error) {
			return xs[i], nil // want `captures loop variable i`
		})
		t.Notify(func(int, error) {})
	}
}

// ctxSharedIndex: the same stale capture through a context-aware task.
func ctxSharedIndex(rt *ptask.Runtime, ctx context.Context, xs []int) {
	var i int
	for i = 0; i < len(xs); i++ {
		t := ptask.RunCtx(rt, ctx, func(context.Context) (int, error) {
			return xs[i], nil // want `passed to ptask.RunCtx captures loop variable i`
		})
		t.Notify(func(int, error) {})
	}
}
