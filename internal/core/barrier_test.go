package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBarrierTreeShapes exercises every tree shape from a single node up
// through three levels (parties 1..17 with fan-in 4): each generation must
// release everyone and elect exactly one serial thread, for every shape.
func TestBarrierTreeShapes(t *testing.T) {
	const rounds = 4
	for parties := 1; parties <= 17; parties++ {
		b := NewBarrier(parties)
		serials := make([]atomic.Int32, rounds)
		var wg sync.WaitGroup
		for id := 0; id < parties; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					gen, serial := b.AwaitAs(id)
					if gen != r {
						t.Errorf("parties=%d party=%d round=%d: gen=%d", parties, id, r, gen)
						return
					}
					if serial {
						serials[r].Add(1)
					}
				}
			}(id)
		}
		wg.Wait()
		for r := 0; r < rounds; r++ {
			if serials[r].Load() != 1 {
				t.Fatalf("parties=%d round=%d: %d serial threads, want 1",
					parties, r, serials[r].Load())
			}
		}
	}
}

// TestBarrierPartyStats checks the deterministic accounting invariants of
// the per-party counters: every party records one wait per generation, and
// each generation's parties-1 non-serial members record exactly one
// spin-release or park.
func TestBarrierPartyStats(t *testing.T) {
	const parties, rounds = 5, 8
	b := NewBarrier(parties)
	var wg sync.WaitGroup
	for id := 0; id < parties; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				b.AwaitAs(id)
			}
		}(id)
	}
	wg.Wait()
	var waits, waited int64
	for id := 0; id < parties; id++ {
		st := b.PartyStats(id)
		if st.Waits != rounds {
			t.Errorf("party %d: Waits=%d, want %d", id, st.Waits, rounds)
		}
		waits += st.Waits
		waited += st.SpinReleases + st.Parks
	}
	if waits != parties*rounds {
		t.Errorf("total waits %d, want %d", waits, parties*rounds)
	}
	if waited != (parties-1)*rounds {
		t.Errorf("total spin-releases+parks %d, want %d (one per non-serial member per generation)",
			waited, (parties-1)*rounds)
	}
	if st := b.PartyStats(-1); st != (BarrierStats{}) {
		t.Error("out-of-range PartyStats not zero")
	}
}

// TestBarrierAbortReleasesFutureGeneration: abort must fail-fast parties
// blocked in a *later* generation than the one in flight when Abort ran,
// and parties whose generation completed concurrently with the abort must
// return normally rather than panic.
func TestBarrierAbortReleasesFutureGeneration(t *testing.T) {
	b := NewBarrier(2)
	// Complete one generation normally.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); b.AwaitAs(1) }()
	b.AwaitAs(0)
	wg.Wait()

	// Block one party in generation 1, then abort.
	panics := make(chan any, 1)
	go func() {
		defer func() { panics <- recover() }()
		b.AwaitAs(0)
	}()
	time.Sleep(2 * time.Millisecond)
	b.Abort()
	select {
	case v := <-panics:
		if v != ErrBarrierAborted {
			t.Fatalf("blocked party got %v, want ErrBarrierAborted", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abort did not release the blocked party")
	}
}
