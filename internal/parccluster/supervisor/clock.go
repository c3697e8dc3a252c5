package supervisor

import (
	"sync"
	"time"
)

// Clock abstracts time for the runner so restart-delay behaviour is
// testable without sleeping: the backoff wait is a select on After plus
// the runner's dying channel, and tests drive a ManualClock instead of
// the wall clock (the juju runner keeps its RestartDelay patchable for
// the same reason; an injectable clock is the stricter version).
type Clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
}

// realClock is the production Clock.
type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// ManualClock is a Clock advanced explicitly by tests. Timers set with
// After fire when Advance moves the clock past their deadline; nothing
// fires on its own.
type ManualClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []manualTimer
}

type manualTimer struct {
	at time.Time
	ch chan time.Time
}

// NewManualClock returns a manual clock starting at start.
//
//parcvet:ignore unused fake manual clock the restart-delay tests drive
func NewManualClock(start time.Time) *ManualClock {
	return &ManualClock{now: start}
}

// Now returns the clock's current instant.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After returns a channel that receives once the clock has been advanced
// to or past d from now.
func (c *ManualClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	at := c.now.Add(d)
	if d <= 0 {
		ch <- at
		return ch
	}
	c.timers = append(c.timers, manualTimer{at: at, ch: ch})
	return ch
}

// Advance moves the clock forward by d, firing every timer whose deadline
// it reaches.
//
//parcvet:ignore unused fake manual clock the restart-delay tests drive
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	kept := c.timers[:0]
	for _, t := range c.timers {
		if !t.at.After(c.now) {
			t.ch <- c.now
		} else {
			kept = append(kept, t)
		}
	}
	c.timers = kept
}

// Waiters reports how many After timers are pending — tests use it to
// synchronise on "the runner is now in its backoff wait" without racing
// the control loop.
//
//parcvet:ignore unused fake manual clock the restart-delay tests drive
func (c *ManualClock) Waiters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
}
