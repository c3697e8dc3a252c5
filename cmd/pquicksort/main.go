// Command pquicksort runs the project 2 comparison from the command line:
// sorting a random array with the sequential baseline and the three
// parallel expressions (Parallel Task, Pyjama, goroutines), verifying and
// timing each.
//
// Usage:
//
//	pquicksort -n 1000000 -workers 4
//	pquicksort -n 500000 -impl ptask -threshold 2048
//	pquicksort -n 200000 -chaos          # sort under seeded fault injection
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"parc751/internal/faultinject"
	"parc751/internal/probe"
	"parc751/internal/ptask"
	"parc751/internal/sortalgo"
	"parc751/internal/workload"
)

func main() {
	var (
		n         = flag.Int("n", 1000000, "array length")
		workers   = flag.Int("workers", 4, "worker threads / team size")
		threshold = flag.Int("threshold", 4096, "sequential cutoff")
		impl      = flag.String("impl", "all", "seq | ptask | pyjama | go | all")
		seed      = flag.Uint64("seed", 751, "input seed")
		chaos     = flag.Bool("chaos", false,
			"inject a seeded fault plan (submit/run delays, a worker stall, barrier arrival skew) while sorting; the result must still verify")
	)
	flag.Parse()

	base := workload.IntArray(*seed, *n, 1<<30)
	rt := ptask.NewRuntime(*workers)
	defer rt.Shutdown()

	if *chaos {
		plan := faultinject.Plan{Name: "pquicksort-chaos", Seed: *seed}
		plan.Rules = append(plan.Rules,
			faultinject.Scatter(*seed, probe.SiteSubmit, faultinject.Delay, 8, 64, 200*time.Microsecond)...)
		plan.Rules = append(plan.Rules,
			faultinject.Rule{Site: probe.SiteRun, Kind: faultinject.Stall,
				Nth: *seed % 32, Count: 1, Dur: 2 * time.Millisecond},
			faultinject.Rule{Site: probe.SiteBarrier, Kind: faultinject.Delay,
				Every: 3, Dur: 300 * time.Microsecond})
		injector := faultinject.New(plan)
		// One attach reaches every runtime: the ptask pool's hooks and
		// the Pyjama team barriers.
		probe.CompareAndSwap(nil, injector)
		defer func() {
			probe.CompareAndSwap(injector, nil)
			fmt.Printf("chaos: injected %d faults: %s\n", injector.Fired(), injector.TraceString())
		}()
	}

	impls := map[string]func([]int){
		"seq":    sortalgo.Sequential,
		"ptask":  func(xs []int) { sortalgo.PTask(rt, xs, *threshold) },
		"pyjama": func(xs []int) { sortalgo.Pyjama(*workers, xs, *threshold) },
		"go":     func(xs []int) { sortalgo.Goroutines(xs, *threshold, 8) },
	}
	order := []string{"seq", "ptask", "pyjama", "go"}

	run := func(name string) {
		f, ok := impls[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "pquicksort: unknown impl %q\n", name)
			os.Exit(2)
		}
		xs := append([]int(nil), base...)
		start := time.Now()
		f(xs)
		d := time.Since(start)
		status := "sorted"
		if !sort.IntsAreSorted(xs) {
			status = "NOT SORTED"
		}
		fmt.Printf("%-8s n=%d threshold=%d workers=%d: %v (%s)\n",
			name, *n, *threshold, *workers, d, status)
	}

	if *impl == "all" {
		for _, name := range order {
			run(name)
		}
		return
	}
	run(*impl)
}
