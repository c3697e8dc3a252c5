package pyjama

import (
	"parc751/internal/core"
	"parc751/internal/eventloop"
)

// GUI awareness is the feature that distinguishes Pyjama from classic
// OpenMP (§IV-B of the paper: "providing essential support necessary for
// GUI applications"). Two directives are reproduced:
//
//   - freeguithread: run a parallel region asynchronously so the event
//     thread stays free, then deliver a completion handler back on it
//     (Async below);
//   - gui: from inside a region, marshal a block onto the event-dispatch
//     thread to touch UI state (OnGUI / OnGUISync below).

// Async runs the parallel region on background goroutines and returns
// immediately — Pyjama's "#omp parallel freeguithread". When the region
// finishes, onDone is delivered on the event loop (inline if loop is nil
// or closed) with the region's panic converted to an error (nil on
// success).
//
//parcvet:ignore unused api Pyjama GUI-aware construct
func Async(loop *eventloop.Loop, nthreads int, body func(tc *TC), onDone func(err error)) {
	go func() {
		err := core.Catch(func() { Parallel(nthreads, body) })
		deliver := func() {
			if onDone != nil {
				onDone(err)
			}
		}
		if loop != nil {
			if postErr := loop.InvokeLater(deliver); postErr == nil {
				return
			}
		}
		deliver()
	}()
}

// OnGUI posts fn to the event loop without waiting — "#omp gui nowait".
// With a nil loop it runs inline (headless mode).
//
//parcvet:ignore unused api Pyjama GUI-aware construct
func OnGUI(loop *eventloop.Loop, fn func()) {
	if loop == nil {
		fn()
		return
	}
	if err := loop.InvokeLater(fn); err != nil {
		fn()
	}
}

// OnGUISync runs fn on the event loop and waits for it — "#omp gui". With
// a nil loop it runs inline.
//
//parcvet:ignore unused api Pyjama GUI-aware construct
func OnGUISync(loop *eventloop.Loop, fn func()) {
	if loop == nil {
		fn()
		return
	}
	if err := loop.InvokeAndWait(fn); err != nil {
		fn()
	}
}
