package pyjama

// Tests for the lock-free worksharing hot path (ISSUE 2): slot tables,
// SPMD-mismatch detection, combine-once reductions, schedule(auto), region
// stats, and a mixed-construct stress for the race detector.

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"parc751/internal/reduction"
)

// TestSlotTableAt crosses several segment boundaries (segments hold 8,
// 16, 32, ... entries): at hands out one stable entry per slot, readied
// by the init hook, and peek sees it once its segment exists.
func TestSlotTableAt(t *testing.T) {
	st := slotTable[int]{init: func(seg []int) {
		for i := range seg {
			seg[i] = -len(seg)
		}
	}}
	if st.peek(0) != nil {
		t.Fatal("peek on an empty table is not nil")
	}
	const n = 200
	for i := 0; i < n; i++ {
		v := st.at(i)
		seg, _ := slotIndex(i)
		if *v != -(slotSegBase << seg) {
			t.Fatalf("slot %d: init left %d, want %d", i, *v, -(slotSegBase << seg))
		}
		*v = i
	}
	for i := 0; i < n; i++ {
		if v := st.at(i); *v != i {
			t.Fatalf("slot %d: at = %d", i, *v)
		}
		if v := st.peek(i); v != st.at(i) {
			t.Fatalf("slot %d: peek and at disagree", i)
		}
	}
	if seg, _ := slotIndex(n - 1); st.peek(slotSegBase*((2<<seg)-1)) != nil {
		t.Error("peek past the last allocated segment is not nil")
	}
}

// TestSlotTableReset clears the entries below the limit, keeps the first
// keptSegs segments, and drops the ones beyond.
func TestSlotTableReset(t *testing.T) {
	var st slotTable[int]
	kept := slotSegBase * (1<<keptSegs - 1) // 504
	const n = 600
	for i := 0; i < n; i++ {
		*st.at(i) = i + 1
	}
	first := st.peek(0)
	st.reset(n-1, func(v *int) { *v = 0 })
	if st.peek(0) != first {
		t.Fatal("reset replaced a kept segment")
	}
	for i := 0; i < kept; i++ {
		if v := st.peek(i); v == nil || *v != 0 {
			t.Fatalf("slot %d below the limit was not cleared", i)
		}
	}
	for i := kept; i < n; i++ {
		if st.peek(i) != nil {
			t.Fatalf("slot %d: segment past keptSegs survived reset", i)
		}
	}
	// A dropped segment comes back readied on its next use.
	if v := st.at(n - 1); *v != 0 {
		t.Fatalf("re-created slot %d holds %d, want 0", n-1, *v)
	}
	// Without a clear function reset only drops segments.
	*st.at(3) = 7
	st.reset(n, nil)
	if *st.peek(3) != 7 || st.peek(n-1) != nil {
		t.Fatal("reset without clear touched a kept entry or kept a dropped segment")
	}
}

// TestSlotTableConcurrentFirstUse races goroutines to the first use of
// every slot: each must get the one published entry of its slot.
func TestSlotTableConcurrentFirstUse(t *testing.T) {
	var st slotTable[int]
	const goroutines, slots = 8, 100
	var got [goroutines][slots]*int
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for slot := 0; slot < slots; slot++ {
				got[g][slot] = st.at(slot)
			}
		}()
	}
	wg.Wait()
	for slot := 0; slot < slots; slot++ {
		for g := 0; g < goroutines; g++ {
			if got[g][slot] != st.peek(slot) {
				t.Fatalf("slot %d: goroutine %d got an entry other than the published one", slot, g)
			}
		}
	}
}

func TestSPMDMismatchPanicsWithDebug(t *testing.T) {
	prev := SetDebug(true)
	defer SetDebug(prev)
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("mismatched worksharing loop did not panic with debug on")
		}
		if msg := fmt.Sprint(v); !strings.Contains(msg, "SPMD mismatch") {
			t.Fatalf("panic %q does not describe the SPMD mismatch", msg)
		}
	}()
	Parallel(2, func(tc *TC) {
		// The team disagrees about the loop bound: whichever member arrives
		// second must detect the mismatch.
		n := 10
		if tc.ThreadNum() == 1 {
			n = 20
		}
		tc.For(n, Static(0), func(int) {})
	})
}

func TestSPMDMismatchSilentWithoutDebug(t *testing.T) {
	prev := SetDebug(false)
	defer SetDebug(prev)
	// Without debug each member claims against its own bound on the
	// shared dynamic cursor. The result is unspecified (the member with
	// the smaller bound stops early, so iterations can be dropped: exactly
	// the corruption SetDebug(true) diagnoses), but it must not panic and
	// stays within the two bounds.
	var iters atomic.Int64
	Parallel(2, func(tc *TC) {
		n := 10
		if tc.ThreadNum() == 1 {
			n = 20
		}
		tc.For(n, Dynamic(1), func(int) { iters.Add(1) })
	})
	if got := iters.Load(); got < 10 || got > 20 {
		t.Fatalf("ran %d iterations, want within [10, 20]", got)
	}
}

func TestForReduceCombinesOncePerMember(t *testing.T) {
	const threads, n = 4, 100
	var combines atomic.Int64
	r := reduction.Reducer[int]{
		Identity: func() int { return 0 },
		Combine: func(a, b int) int {
			combines.Add(1)
			return a + b
		},
	}
	Parallel(threads, func(tc *TC) {
		got := ForReduce(tc, n, Static(0), r, func(i, acc int) int { return acc + i })
		if got != n*(n-1)/2 {
			t.Errorf("thread %d: sum=%d, want %d", tc.ThreadNum(), got, n*(n-1)/2)
		}
	})
	// The serial thread folds each member's partial into the identity once:
	// exactly T combines, not the T² of a combine-per-member scheme.
	if got := combines.Load(); got != threads {
		t.Fatalf("Combine ran %d times, want %d (once per team member)", got, threads)
	}
}

func TestAutoScheduleCoverage(t *testing.T) {
	const threads, n = 4, 3000
	counts := make([]atomic.Int32, n)
	stats := ParallelWithStats(threads, func(tc *TC) {
		tc.For(n, Auto(), func(i int) { counts[i].Add(1) })
	})
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("iteration %d ran %d times", i, c)
		}
	}
	if len(stats.Auto) != 1 {
		t.Fatalf("%d auto decisions recorded, want 1", len(stats.Auto))
	}
	d := stats.Auto[0]
	if d.Mode != "static" && d.Mode != "dynamic" {
		t.Fatalf("auto decision %q, want a committed mode", d.Mode)
	}
	if d.CalibEnd <= 0 || d.CalibEnd > n {
		t.Fatalf("calibration prefix %d out of range", d.CalibEnd)
	}
}

func TestAutoTinyLoop(t *testing.T) {
	// Loops smaller than the calibration prefix must still cover exactly.
	for _, n := range []int{0, 1, 3, 7} {
		var iters atomic.Int64
		Parallel(4, func(tc *TC) {
			tc.For(n, Auto(), func(int) { iters.Add(1) })
		})
		if got := iters.Load(); got != int64(n) {
			t.Fatalf("n=%d: ran %d iterations", n, got)
		}
	}
}

func TestRegionStatsCounts(t *testing.T) {
	const threads, n, chunk = 4, 1000, 7
	stats := ParallelWithStats(threads, func(tc *TC) {
		tc.For(n, Dynamic(chunk), func(int) {})
	})
	if got := stats.TotalIterations(); got != n {
		t.Errorf("TotalIterations=%d, want %d", got, n)
	}
	wantChunks := int64((n + chunk - 1) / chunk)
	if got := stats.TotalChunks(); got != wantChunks {
		t.Errorf("TotalChunks=%d, want %d", got, wantChunks)
	}
	if len(stats.Threads) != threads {
		t.Fatalf("%d thread rows, want %d", len(stats.Threads), threads)
	}
	for _, ts := range stats.Threads {
		if ts.Barrier.Waits < 1 {
			t.Errorf("thread %d: Waits=%d, want >=1 (the For's implicit barrier)",
				ts.ID, ts.Barrier.Waits)
		}
	}
	if out := stats.String(); !strings.Contains(out, "Pyjama region stats") {
		t.Error("String() missing the stats table")
	}
}

// TestMixedConstructStress interleaves For/Single/Ordered/ForReduce/
// Critical across repeated rounds — primarily a race-detector workload for
// the lock-free registries and the tree barrier.
func TestMixedConstructStress(t *testing.T) {
	const threads, rounds, n = 4, 30, 64
	sum := reduction.Reducer[int]{
		Identity: func() int { return 0 },
		Combine:  func(a, b int) int { return a + b },
	}
	var singles, criticals atomic.Int64
	var orderTrace []int
	Parallel(threads, func(tc *TC) {
		for r := 0; r < rounds; r++ {
			var local atomic.Int64
			tc.For(n, Dynamic(3), func(i int) { local.Add(int64(i)) })
			tc.Single(func() { singles.Add(1) })
			got := ForReduce(tc, n, Guided(2), sum, func(i, acc int) int { return acc + i })
			if got != n*(n-1)/2 {
				t.Errorf("round %d: reduce=%d", r, got)
			}
			tc.ForNoWait(8, Static(1), func(i int) {
				tc.Ordered(i, func() { orderTrace = append(orderTrace, i) })
			})
			tc.Barrier()
			tc.Critical("c", func() { criticals.Add(1) })
		}
	})
	if singles.Load() != rounds {
		t.Errorf("Single ran %d times, want %d", singles.Load(), rounds)
	}
	if criticals.Load() != threads*rounds {
		t.Errorf("Critical ran %d times, want %d", criticals.Load(), threads*rounds)
	}
	if len(orderTrace) != 8*rounds {
		t.Fatalf("ordered trace has %d entries, want %d", len(orderTrace), 8*rounds)
	}
	for r := 0; r < rounds; r++ {
		for i := 0; i < 8; i++ {
			if orderTrace[r*8+i] != i {
				t.Fatalf("round %d: ordered sequence broken at %d: %v",
					r, i, orderTrace[r*8:r*8+8])
			}
		}
	}
}
