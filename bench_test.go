package parc751

// The Go benchmark view of the runtime hot paths. perfbench.Suite is the
// one definition of each path; this adapter drives the same specs through
// testing.B, so `go test -bench`, -cpuprofile and benchstat measure
// exactly what `parcbench -perf` ratchets against BENCH_<n>.json. The
// paper exhibits and the DESIGN.md §5 ablations run through the
// experiments registry: TestAllExperimentsPass and `parcbench -e`.

import (
	"testing"

	"parc751/internal/perfbench"
)

func BenchmarkHotPaths(b *testing.B) {
	specs, cleanup := perfbench.Suite()
	b.Cleanup(cleanup)
	for _, spec := range specs {
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			spec.Bench(b.N)
		})
	}
}
