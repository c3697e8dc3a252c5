package parctrace

import (
	"sync"
	"testing"

	"parc751/internal/probe"
)

// TestRingConcurrentConservation is the ring's core property test, run
// under -race in CI with more writers than the host has CPUs: after W
// concurrent writers finish, every claim is accounted for — it is either
// readable in the snapshot window or counted lost (overwritten by a
// later lap, or dropped whole by a lap race) — and the events that did
// survive preserve each writer's program order.
func TestRingConcurrentConservation(t *testing.T) {
	const (
		writers   = 8
		perWriter = 2000
		laneCap   = 256 // far smaller than the write volume: laps guaranteed
	)
	r := newRing(laneCap)
	var wg sync.WaitGroup
	wg.Add(writers)
	var dropped [writers]uint64
	for w := 0; w < writers; w++ {
		w := w
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Task encodes (writer, sequence) so the snapshot can
				// check per-writer order without any auxiliary state.
				ev := Event{Kind: probe.SiteSubmit, Worker: int32(w), Task: uint64(w)<<32 | uint64(i)}
				if !r.write(ev) {
					dropped[w]++
				}
			}
		}()
	}
	wg.Wait()

	evs, lost := r.snapshot()
	claims := r.pos.Load()
	if claims != writers*perWriter {
		t.Fatalf("claims = %d, want %d", claims, writers*perWriter)
	}
	if got := uint64(len(evs)) + lost; got != claims {
		t.Fatalf("conservation broken: %d readable + %d lost = %d, want %d claims",
			len(evs), lost, got, claims)
	}
	if uint64(len(evs)) > r.capacity() {
		t.Fatalf("snapshot window %d exceeds capacity %d", len(evs), r.capacity())
	}
	// A dropped claim never publishes its sequence word, so the reader
	// counts it lost — below the window it is part of the shortfall, in
	// the window it is a seq mismatch. Either way, lost bounds dropped.
	var droppedTotal uint64
	for _, d := range dropped {
		droppedTotal += d
	}
	if lost < droppedTotal {
		t.Fatalf("lost %d < dropped %d: a dropped claim was read back", lost, droppedTotal)
	}
	// Per-writer order: fetch-add claims are totally ordered, and each
	// writer's claims are issued in its program order, so surviving
	// events from one writer must appear in increasing sequence.
	lastSeq := make(map[int32]uint64, writers)
	for _, ev := range evs {
		seq := ev.Task & 0xffffffff
		if prev, ok := lastSeq[ev.Worker]; ok && seq <= prev {
			t.Fatalf("writer %d order violated: seq %d after %d", ev.Worker, seq, prev)
		}
		lastSeq[ev.Worker] = seq
	}
}

// TestRingNoLossWithinCapacity: a ring large enough for the whole write
// volume loses nothing, even under concurrent writers — the lap race
// cannot occur before the first wrap.
func TestRingNoLossWithinCapacity(t *testing.T) {
	const writers, perWriter = 8, 100
	r := newRing(writers * perWriter)
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		w := w
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if !r.write(Event{Kind: probe.SiteRun, Worker: int32(w), Task: uint64(i)}) {
					t.Errorf("write dropped before first wrap")
					return
				}
			}
		}()
	}
	wg.Wait()
	evs, lost := r.snapshot()
	if lost != 0 {
		t.Fatalf("lost %d events with capacity %d for %d writes", lost, r.capacity(), writers*perWriter)
	}
	if len(evs) != writers*perWriter {
		t.Fatalf("read %d events, wrote %d", len(evs), writers*perWriter)
	}
}

// TestRingSequentialWrap pins the exact single-writer wrap accounting:
// after k > cap writes the window holds the last cap events in order and
// lost equals k - cap.
func TestRingSequentialWrap(t *testing.T) {
	const capacity, total = 8, 29
	r := newRing(capacity)
	for i := 0; i < total; i++ {
		if !r.write(Event{Kind: probe.SiteComplete, Task: uint64(i)}) {
			t.Fatalf("sequential write %d dropped", i)
		}
	}
	evs, lost := r.snapshot()
	if lost != total-capacity {
		t.Fatalf("lost = %d, want %d", lost, total-capacity)
	}
	if len(evs) != capacity {
		t.Fatalf("window = %d events, want %d", len(evs), capacity)
	}
	for i, ev := range evs {
		if want := uint64(total - capacity + i); ev.Task != want {
			t.Fatalf("window[%d].Task = %d, want %d", i, ev.Task, want)
		}
	}
}

// TestRecorderConservation pins the recorder-level identity the dump
// accounting is built on: for the whole recording,
//
//	sum(counts) == recorded + lost + sampled-out
//
// with tiny lanes so sampling engages and all three sinks are
// exercised by ≥8 concurrent recording goroutines.
func TestRecorderConservation(t *testing.T) {
	const writers, perWriter = 8, 4000
	rec := NewRecorder(Config{Workers: 4, LaneCap: 64})
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		w := w
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Cycle workers (including -1, the external lane) and
				// kinds so every lane and every counter participates.
				rec.record(probe.Site(i%int(probe.NumSites)), w%6-1, uint64(i), 0)
			}
		}()
	}
	wg.Wait()
	d := rec.Snapshot(Meta{Name: "conservation"})

	var counted uint64
	for k := probe.Site(0); k < probe.NumSites; k++ {
		counted += rec.Count(k)
	}
	if counted != writers*perWriter {
		t.Fatalf("counters = %d, want %d (counters must be exact under sampling)",
			counted, writers*perWriter)
	}
	if got := d.Recorded + d.Lost + d.SampledOut; got != counted {
		t.Fatalf("conservation broken: recorded %d + lost %d + sampled %d = %d, want %d",
			d.Recorded, d.Lost, d.SampledOut, got, counted)
	}
	if d.SampledOut == 0 {
		t.Fatalf("sampling never engaged: lanes of cap 64 under %d events must wrap", writers*perWriter)
	}
}
