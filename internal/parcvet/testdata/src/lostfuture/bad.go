// Package lostfuture holds misuse fixtures: futures created and never
// awaited.
package lostfuture

import "parc751/internal/ptask"

func discarded(rt *ptask.Runtime) {
	ptask.Run(rt, func() (int, error) { return 1, nil }) // want `is discarded`
}

func blanked(rt *ptask.Runtime) {
	_ = ptask.Run(rt, func() (int, error) { return 2, nil }) // want `assigned to _`
}

func earlyReturn(rt *ptask.Runtime, flaky bool) (int, error) {
	t := ptask.Run(rt, func() (int, error) { return 3, nil }) // want `not awaited on every path`
	if flaky {
		return 0, nil
	}
	return t.Result()
}

func multiDiscarded(rt *ptask.Runtime) {
	ptask.RunMulti(rt, 4, func(i int) (int, error) { return i, nil }) // want `is discarded`
}

func withDiscarded(rt *ptask.Runtime) {
	ptask.RunWith(rt, 7, func(n int) (int, error) { return n * 2, nil }) // want `is discarded`
}
