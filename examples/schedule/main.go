// Schedule-visualisation example: run the simulated PARC machine over an
// imbalanced task set and draw the resulting work-stealing schedule with
// parctrace's ASCII timeline, the same renderer and record (a
// parctrace.Dump in virtual nanoseconds) used for real runs — the
// teaching visual behind the speedup tables in EXPERIMENTS.md. Run with:
//
//	go run ./examples/schedule
package main

import (
	"fmt"

	"parc751/internal/machine"
	"parc751/internal/parctrace"
)

func main() {
	// A skewed workload: most tasks small, a few large, all seeded on
	// processor 0 so the schedule is pure stealing.
	var costs []uint64
	for i := 0; i < 48; i++ {
		c := uint64(400)
		if i%12 == 0 {
			c = 4000
		}
		costs = append(costs, c)
	}

	for _, cfg := range []machine.Config{
		machine.AndroidQuad(),
		machine.PARC8(),
	} {
		m := machine.New(cfg)
		m.EnableTrace()
		for _, c := range costs {
			m.Submit(0, c, nil)
		}
		st := m.Run()
		seq := machine.SequentialTime(costs)
		fmt.Printf("=== %s: %d procs ===\n", cfg.Name, cfg.Procs)
		fmt.Printf("sequential %d ns, makespan %d ns, speedup %.2f, util %.0f%%, steals %d\n",
			seq, st.Makespan, float64(seq)/float64(st.Makespan)/cfg.SpeedFactor,
			st.AvgUtil*100, st.Steals)
		fmt.Print(parctrace.RenderASCII(m.Trace(), 64))
		fmt.Println()
	}
}
