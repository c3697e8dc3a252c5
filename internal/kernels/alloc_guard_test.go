//go:build !race

// Allocation-budget guard for the parallel PageRank kernel. Excluded
// under -race because the race runtime's own instrumentation allocates.

package kernels

import (
	"runtime"
	"testing"

	"parc751/internal/workload"
)

// TestPageRankAllocGuard pins what one PageRankParallel call allocates on
// a graph whose transpose is already built: the rank vector it returns,
// the rank and next variables the region's Master swaps, and the
// region's closure. The second vector comes from the kernel's pool and
// the per-construct worksharing state from Pyjama's pools. A call that
// rebuilt the transpose would add its slices and the Graph itself; one
// that allocated its second vector, or a third, would add 8n bytes.
func TestPageRankAllocGuard(t *testing.T) {
	const n = 2000
	g := workload.GenGraph(1, n, 8)
	for k := 0; k < 4; k++ {
		PageRankParallel(2, g, 0.85, 10) // builds the transpose, warms the pools
	}
	// Measured 6 on a 2-CPU host; the budget leaves room for a pool
	// refill after a GC.
	const budget = 8
	if got := testing.AllocsPerRun(50, func() { PageRankParallel(2, g, 0.85, 10) }); got > budget {
		t.Fatalf("PageRankParallel allocates %v objects/call on a warm graph, want <= %d", got, budget)
	}
	// Bytes: the returned vector plus a little fixed overhead. Measured
	// 16.9 KB/call at n = 2000 on a 2-CPU host, against 49.6 KB/call
	// when each call made its own next and contrib vectors.
	const calls = 200
	const byteBudget = 8*n + 4096
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < calls; k++ {
		PageRankParallel(2, g, 0.85, 10)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / calls; got > byteBudget {
		t.Fatalf("PageRankParallel allocates %d bytes/call on a warm graph, want <= %d", got, byteBudget)
	}
}
