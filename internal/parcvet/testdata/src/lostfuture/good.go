package lostfuture

import "parc751/internal/ptask"

// awaited consumes the result on the only path.
func awaited(rt *ptask.Runtime) int {
	t := ptask.Run(rt, func() (int, error) { return 3, nil })
	v, _ := t.Result()
	return v
}

// notified hands the result to a callback — consumption by Notify.
func notified(rt *ptask.Runtime) {
	t := ptask.Run(rt, func() (int, error) { return 3, nil })
	t.Notify(func(int, error) {})
}

// escaped returns the future: the caller owns consumption.
func escaped(rt *ptask.Runtime) *ptask.Task[int] {
	return ptask.Run(rt, func() (int, error) { return 4, nil })
}

// stored passes the future on as a dependence — also an escape.
func stored(rt *ptask.Runtime) {
	t := ptask.Run(rt, func() (int, error) { return 5, nil })
	ptask.WaitAll(rt, t)
}

// everyPath consumes on both branches.
func everyPath(rt *ptask.Runtime, flaky bool) (int, error) {
	t := ptask.Run(rt, func() (int, error) { return 6, nil })
	if flaky {
		t.Cancel()
		return 0, nil
	}
	return t.Result()
}

// withJoined awaits a task that carries its input as an argument.
func withJoined(rt *ptask.Runtime) int {
	t := ptask.RunWith(rt, 7, func(n int) (int, error) { return n * 2, nil })
	v, _ := t.Result()
	return v
}
