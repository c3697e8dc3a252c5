// Command pquicksort runs the project 2 comparison from the command line:
// sorting a random array with the sequential baseline and the three
// parallel expressions (Parallel Task, Pyjama, goroutines), verifying and
// timing each.
//
// Usage:
//
//	pquicksort -n 1000000 -workers 4
//	pquicksort -n 500000 -impl ptask -threshold 2048
//
// To sort under seeded fault injection, run the chaos catalogue's
// quicksort scenario: parctrace record -workload quicksort -chaos.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

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
	)
	flag.Parse()

	base := workload.IntArray(*seed, *n, 1<<30)
	rt := ptask.NewRuntime(*workers)
	defer rt.Shutdown()

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
