//go:build !race

// Allocation-budget guard for the parallel PageRank kernel. Excluded
// under -race because the race runtime's own instrumentation allocates.

package kernels

import (
	"testing"

	"parc751/internal/workload"
)

// TestPageRankAllocGuard pins what one PageRankParallel call allocates on
// a graph whose transpose is already built: the rank, next and contrib
// vectors, the rank and next variables the region's Master swaps, and
// the region's closure. The per-construct worksharing state comes from
// Pyjama's pools. A call that rebuilt the transpose would add its slices
// and the Graph itself.
func TestPageRankAllocGuard(t *testing.T) {
	g := workload.GenGraph(1, 2000, 8)
	for k := 0; k < 4; k++ {
		PageRankParallel(2, g, 0.85, 10) // builds the transpose, warms the pools
	}
	// Measured 6 on a 2-CPU host; the budget leaves room for a pool
	// refill after a GC.
	const budget = 8
	if got := testing.AllocsPerRun(50, func() { PageRankParallel(2, g, 0.85, 10) }); got > budget {
		t.Fatalf("PageRankParallel allocates %v objects/call on a warm graph, want <= %d", got, budget)
	}
}
