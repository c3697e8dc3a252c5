package core

import (
	"sync"
	"sync/atomic"
)

// Future completion states.
const (
	futPending    uint32 = iota // not complete
	futCompleting               // a completer has claimed the write
	futDone                     // value and error are published
)

// Future is a write-once result container. The zero value is an
// incomplete future, so a Future can live inside the struct that
// completes it (a ptask.Task holds its own); NewFuture allocates one on
// its own.
//
// Completion is an atomic state machine plus one park-slot registration,
// and the Done channel is created lazily only for callers that actually
// select on it. A joiner registers a park slot (a worker's own, or a
// pooled Parker for any other goroutine), re-checks the state, and only
// then waits, so a future that is completed and joined with Get
// allocates nothing beyond the struct that holds it.
type Future[T any] struct {
	state atomic.Uint32
	// chClosed arbitrates the close of done between a racing completer
	// and installer.
	chClosed atomic.Uint32
	// done is the lazily created completion channel.
	done atomic.Pointer[chan struct{}]

	// waiter is the park slot of the joiner that registered first (a
	// helper in Pool.HelpJoin or a blocking Get); Complete takes it and
	// wakes it.
	waiter atomic.Pointer[parkSlot]

	val T
	err error
}

// NewFuture returns an incomplete future.
func NewFuture[T any]() *Future[T] { return &Future[T]{} }

// Complete fulfils the future. Later completions are ignored (write-once).
func (f *Future[T]) Complete(v T, err error) {
	if !f.state.CompareAndSwap(futPending, futCompleting) {
		return
	}
	f.val, f.err = v, err
	f.state.Store(futDone)
	// Read the registration only after publishing futDone (see help's
	// and Get's re-checks). A slow completer may wake a Parker already
	// back in its pool, or a worker slot that has moved on to another
	// join; the wake is spurious, and the slot's owner re-checks before
	// it parks again.
	if s := f.waiter.Swap(nil); s != nil {
		s.wake()
	}
	if ch := f.done.Load(); ch != nil {
		f.closeDone(*ch)
	}
}

// watch registers s to be woken by Complete. It fails when another
// joiner's slot holds the registration.
func (f *Future[T]) watch(s *parkSlot) bool {
	return f.waiter.CompareAndSwap(nil, s) || f.waiter.Load() == s
}

// unwatch withdraws s's registration, if it is still in place.
func (f *Future[T]) unwatch(s *parkSlot) { f.waiter.CompareAndSwap(s, nil) }

// closeDone closes the done channel exactly once, whichever of the
// completer or a racing Done() installer gets here first.
func (f *Future[T]) closeDone(ch chan struct{}) {
	if f.chClosed.CompareAndSwap(0, 1) {
		close(ch)
	}
}

// Done returns a channel closed when the future completes. The channel is
// created on first call; hot paths that join with Get never pay for it.
func (f *Future[T]) Done() <-chan struct{} {
	if ch := f.done.Load(); ch != nil {
		return *ch
	}
	ch := make(chan struct{})
	if f.done.CompareAndSwap(nil, &ch) {
		// The completer loads f.done after storing futDone; if it ran
		// before the install it missed this channel, so close it here.
		if f.state.Load() == futDone {
			f.closeDone(ch)
		}
		return ch
	}
	return *f.done.Load()
}

// IsDone reports completion without blocking.
func (f *Future[T]) IsDone() bool { return f.state.Load() == futDone }

// getParkers recycles the park slots of blocking Gets, so a goroutine
// that is not a pool worker joins without allocating.
var getParkers = sync.Pool{New: func() any { return NewParker() }}

// Get blocks until completion and returns the value and error. A pending
// Get registers a pooled Parker on the future, exactly as a helper
// registers its worker's slot, and parks until the future is done; a
// second concurrent waiter finds the registration taken and waits on
// Done instead.
func (f *Future[T]) Get() (T, error) {
	if !f.IsDone() {
		p := getParkers.Get().(*Parker)
		if f.watch(&p.s) {
			// ParkUntil registers the slot and re-checks IsDone before it
			// waits; Complete publishes futDone before it reads the
			// registration, so one of them sees the other.
			p.ParkUntil(f.IsDone)
			f.unwatch(&p.s)
		} else {
			<-f.Done()
		}
		getParkers.Put(p)
	}
	return f.val, f.err
}
