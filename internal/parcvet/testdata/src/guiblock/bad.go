// Package guiblock holds misuse fixtures: blocking calls inside
// event-dispatch callbacks.
package guiblock

import (
	"time"

	"parc751/internal/core"
	"parc751/internal/eventloop"
	"parc751/internal/ptask"
	"parc751/internal/pyjama"
)

func blockingHandler(rt *ptask.Runtime, loop *eventloop.Loop) {
	t := ptask.Run(rt, func() (int, error) { return 1, nil })
	_ = loop.InvokeLater(func() {
		_, _ = t.Result()            // want `waits for the task`
		time.Sleep(time.Millisecond) // want `sleeps`
	})
}

func doneReceiveInHandler(rt *ptask.Runtime, loop *eventloop.Loop) {
	t := ptask.Run(rt, func() (int, error) { return 1, nil })
	pyjama.OnGUI(loop, func() {
		<-t.Done() // want `blocks the GUI dispatch thread`
	})
}

func regionInNotify(rt *ptask.Runtime, xs []int) {
	t := ptask.Run(rt, func() (int, error) { return 1, nil })
	t.Notify(func(int, error) {
		pyjama.Parallel(2, func(tc *pyjama.TC) { // want `runs a synchronous parallel region`
			tc.For(len(xs), pyjama.Static(0), func(i int) { _ = xs[i] })
		})
	})
}

// helpOnGUI turns the dispatch thread into a pool worker until j is done.
func helpOnGUI(p *core.Pool, j core.Joinable, loop *eventloop.Loop) {
	_ = loop.InvokeLater(func() {
		p.HelpJoin(j) // want `call to \(core.Pool\).HelpJoin donates the calling thread`
	})
}
