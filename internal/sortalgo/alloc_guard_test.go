//go:build !race

// Allocation-budget guard for the Parallel Task quicksort. Excluded
// under -race because the race runtime's own instrumentation allocates.

package sortalgo

import (
	"testing"

	"parc751/internal/ptask"
	"parc751/internal/workload"
)

// TestPTaskAllocGuard pins PTask at one allocation per spawned task: a
// child carries its range as its RunWith argument, so a spawn is the
// task and nothing else. The +2 is the root task and the state every
// task shares. The partition tree is deterministic, so replaying it
// sequentially on a copy of the input counts the spawns exactly.
func TestPTaskAllocGuard(t *testing.T) {
	const threshold = 512
	base := workload.IntArray(11, 50000, 1<<30)
	xs := append([]int(nil), base...)
	spawns := countSpawns(xs, 0, len(xs)-1, threshold)
	if spawns < 50 {
		t.Fatalf("replay counted %d spawns; the guard needs a deeper tree", spawns)
	}
	rt := ptask.NewRuntime(2)
	defer rt.Shutdown()
	sortOnce := func() {
		copy(xs, base)
		PTask(rt, xs, threshold)
	}
	for k := 0; k < 8; k++ {
		sortOnce()
	}
	budget := float64(spawns + 2)
	if got := testing.AllocsPerRun(20, sortOnce); got > budget {
		t.Fatalf("PTask allocates %v objects/call for %d spawns, want <= %v", got, spawns, budget)
	}
}

// countSpawns replays ptaskQuick's recursion sequentially and returns how
// many child tasks it spawns.
func countSpawns(xs []int, lo, hi, threshold int) int {
	if hi-lo < threshold {
		seqQuick(xs, lo, hi)
		return 0
	}
	p := partition(xs, lo, hi)
	return 1 + countSpawns(xs, lo, p, threshold) + countSpawns(xs, p+1, hi, threshold)
}

// TestSequentialZeroAlloc pins the sequential sort at zero allocations:
// the block partition's offset blocks live on its stack frame.
func TestSequentialZeroAlloc(t *testing.T) {
	base := workload.IntArray(12, 20000, 1<<30)
	xs := make([]int, len(base))
	sortOnce := func() {
		copy(xs, base)
		Sequential(xs)
	}
	if got := testing.AllocsPerRun(10, sortOnce); got != 0 {
		t.Fatalf("Sequential allocates %v objects/call, want 0", got)
	}
}
