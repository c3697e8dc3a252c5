package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Future completion states.
const (
	futPending    uint32 = iota // not complete
	futCompleting               // a completer has claimed the write
	futDone                     // value and error are published
)

// Future is a write-once result container. The zero value is not usable;
// create with NewFuture, or acquire a recycled envelope from a
// FuturePool.
//
// The envelope is built for reuse: completion is an atomic state machine
// plus a condition variable (both reusable across recycle cycles), and
// the Done channel — the one piece that cannot be reused once closed —
// is created lazily only for callers that actually select on it. A
// future that is completed and joined with Get therefore allocates
// nothing beyond its own struct, and a pooled future allocates nothing
// at all in steady state.
type Future[T any] struct {
	state atomic.Uint32
	// gen is the envelope's recycle generation, bumped by FuturePool.Put.
	// A holder that captured Gen() at acquisition can detect that its
	// envelope was recycled out from under it (see CheckGen) and panic
	// instead of silently reading another task's result.
	gen atomic.Uint64

	mu   sync.Mutex
	cond sync.Cond // lazily bound to mu on first blocking Get

	// done is the lazily created completion channel; chClosed arbitrates
	// the close between a racing completer and installer.
	done     atomic.Pointer[chan struct{}]
	chClosed atomic.Uint32

	// waiter is the park slot of a helper joining through
	// Pool.HelpJoin; Complete takes it and wakes it.
	waiter atomic.Pointer[parkSlot]

	val T
	err error
}

// NewFuture returns an incomplete future.
func NewFuture[T any]() *Future[T] {
	f := &Future[T]{}
	f.cond.L = &f.mu
	return f
}

// Complete fulfils the future. Later completions are ignored (write-once).
func (f *Future[T]) Complete(v T, err error) {
	if !f.state.CompareAndSwap(futPending, futCompleting) {
		return
	}
	f.val, f.err = v, err
	// Publish under the mutex: blocking getters check state with mu held
	// before waiting, so the store→broadcast pair cannot slip between
	// their check and their wait.
	f.mu.Lock()
	f.state.Store(futDone)
	f.mu.Unlock()
	f.cond.Broadcast()
	// Read the registration only after publishing futDone (see help's
	// re-check). A slow completer may find a registration made on the
	// envelope's next life; the wake it sends is spurious, and the helper
	// it woke re-registers before it parks again.
	if s := f.waiter.Swap(nil); s != nil {
		s.wake()
	}
	if ch := f.done.Load(); ch != nil {
		f.closeDone(*ch)
	}
}

// watch registers s to be woken by Complete. It fails when another
// helper's slot holds the registration.
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

// Get blocks until completion and returns the value and error.
func (f *Future[T]) Get() (T, error) {
	if f.state.Load() == futDone {
		return f.val, f.err
	}
	f.mu.Lock()
	for f.state.Load() != futDone {
		f.cond.Wait()
	}
	f.mu.Unlock()
	return f.val, f.err
}

// Gen returns the envelope's recycle generation. Holders that may outlive
// their claim on a pooled envelope snapshot it at acquisition and guard
// later accesses with CheckGen.
func (f *Future[T]) Gen() uint64 { return f.gen.Load() }

// CheckGen panics if the envelope has been recycled since the holder
// captured gen — a stale handle touching a reused future is a lifetime
// bug that must fail loudly rather than corrupt an unrelated task's
// result.
func (f *Future[T]) CheckGen(gen uint64) {
	if g := f.gen.Load(); g != gen {
		panic(fmt.Sprintf(
			"core: stale future handle (generation %d, envelope now %d): the future was released to its pool and recycled",
			gen, g))
	}
}

// FuturePool recycles Future envelopes. Get returns a reset, incomplete
// future; Put recycles a completed one, bumping its generation so stale
// handles fail loudly (CheckGen) instead of reading a successor's result.
// The zero value is ready to use.
type FuturePool[T any] struct {
	p sync.Pool
}

// Get returns an incomplete future, recycled when one is available.
func (fp *FuturePool[T]) Get() *Future[T] {
	v := fp.p.Get()
	if v == nil {
		return NewFuture[T]()
	}
	return v.(*Future[T])
}

// Put recycles f. The caller must own the only live handle: after Put,
// every other holder's access panics via CheckGen at best and races the
// next owner at worst. Incomplete futures are rejected (a waiter could
// still be parked on them).
func (fp *FuturePool[T]) Put(f *Future[T]) {
	if f.state.Load() != futDone {
		panic("core: FuturePool.Put of an incomplete future (a waiter could still be parked on it)")
	}
	f.gen.Add(1)
	var zero T
	f.val, f.err = zero, nil
	f.done.Store(nil) // the old closed channel belongs to old waiters
	f.waiter.Store(nil)
	f.chClosed.Store(0)
	f.state.Store(futPending)
	fp.p.Put(f)
}
