// Package sortalgo is project 2 of the reproduced paper: parallel
// quicksort implemented three ways with object-oriented language support —
// Parallel Task, Pyjama, and plain threads (goroutines here) — plus the
// sequential baseline. The students' research component was expressing a
// classically-parallelised algorithm through the two PARC models; the
// bench harness compares the same three expressions.
package sortalgo

import (
	"runtime"
	"sync"

	"parc751/internal/ptask"
	"parc751/internal/pyjama"
)

// insertionThreshold is the cutoff below which insertion sort beats
// quicksort's partitioning overhead.
const insertionThreshold = 24

// Sequential sorts xs in place with median-of-three quicksort, the
// baseline every parallel version is verified against and compared to.
func Sequential(xs []int) {
	seqQuick(xs, 0, len(xs)-1)
}

func seqQuick(xs []int, lo, hi int) {
	for hi-lo >= insertionThreshold {
		p := partition(xs, lo, hi)
		// Recurse into the smaller half, loop on the larger: O(log n)
		// stack in the worst case.
		if p-lo < hi-p {
			seqQuick(xs, lo, p)
			lo = p + 1
		} else {
			seqQuick(xs, p+1, hi)
			hi = p
		}
	}
	insertion(xs, lo, hi)
}

func insertion(xs []int, lo, hi int) {
	for i := lo + 1; i <= hi; i++ {
		v := xs[i]
		j := i - 1
		for j >= lo && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}

// partition is Hoare partition with median-of-three pivot selection; it
// returns p such that xs[lo..p] <= pivot <= xs[p+1..hi].
func partition(xs []int, lo, hi int) int {
	mid := lo + (hi-lo)/2
	// Order lo, mid, hi; use the median as the pivot.
	if xs[mid] < xs[lo] {
		xs[mid], xs[lo] = xs[lo], xs[mid]
	}
	if xs[hi] < xs[lo] {
		xs[hi], xs[lo] = xs[lo], xs[hi]
	}
	if xs[hi] < xs[mid] {
		xs[hi], xs[mid] = xs[mid], xs[hi]
	}
	pivot := xs[mid]
	i, j := lo-1, hi+1
	for {
		for {
			i++
			if xs[i] >= pivot {
				break
			}
		}
		for {
			j--
			if xs[j] <= pivot {
				break
			}
		}
		if i >= j {
			return j
		}
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// PTask sorts xs using the Parallel Task model: ranges above threshold
// spawn one child task for the left half and recurse on the right, joining
// via the helping Result. This is the expression the paper's students
// wrote with the TASK keyword; each task's arguments are its range.
func PTask(rt *ptask.Runtime, xs []int, threshold int) {
	if threshold < insertionThreshold {
		threshold = insertionThreshold
	}
	s := &ptaskSort{rt: rt, xs: xs, threshold: threshold}
	root := ptask.RunWith(rt, ptaskRange{s, 0, len(xs) - 1}, ptaskQuick)
	if _, err := root.Result(); err != nil {
		panic(err)
	}
}

// ptaskSort is what every task of one PTask call shares.
type ptaskSort struct {
	rt        *ptask.Runtime
	xs        []int
	threshold int
}

// ptaskRange is one task's argument: the range xs[lo..hi] it sorts.
type ptaskRange struct {
	s      *ptaskSort
	lo, hi int
}

// ptaskQuick spawns the left part as a child task, handles the right part
// itself, then joins the child. A child's error panics on the parent.
func ptaskQuick(r ptaskRange) (struct{}, error) {
	s := r.s
	if r.hi-r.lo < s.threshold {
		seqQuick(s.xs, r.lo, r.hi)
		return struct{}{}, nil
	}
	p := partition(s.xs, r.lo, r.hi)
	child := ptask.RunWith(s.rt, ptaskRange{s, r.lo, p}, ptaskQuick)
	ptaskQuick(ptaskRange{s, p + 1, r.hi})
	if _, err := child.Result(); err != nil {
		panic(err)
	}
	return struct{}{}, nil
}

// Pyjama sorts xs with an OpenMP-2.5-style expression: a parallel region
// whose members cooperatively drain a shared range stack under a critical
// section (Pyjama predates OpenMP tasks, so this is how its users wrote
// divide-and-conquer). The termination protocol counts busy members so
// idle members only exit when no range can still be produced.
func Pyjama(nthreads int, xs []int, threshold int) {
	if threshold < insertionThreshold {
		threshold = insertionThreshold
	}
	if len(xs) < 2 {
		return
	}
	type rng struct{ lo, hi int }
	var (
		mu    sync.Mutex
		stack []rng
		busy  int
	)
	stack = append(stack, rng{0, len(xs) - 1})
	pyjama.Parallel(nthreads, func(tc *pyjama.TC) {
		for {
			mu.Lock()
			if len(stack) == 0 {
				if busy == 0 {
					mu.Unlock()
					return // nothing queued, nobody can produce more
				}
				mu.Unlock()
				runtime.Gosched() // a busy member may still push ranges
				continue
			}
			r := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			busy++
			mu.Unlock()

			for r.hi-r.lo >= threshold {
				p := partition(xs, r.lo, r.hi)
				mu.Lock()
				stack = append(stack, rng{r.lo, p})
				mu.Unlock()
				r.lo = p + 1
			}
			seqQuick(xs, r.lo, r.hi)

			mu.Lock()
			busy--
			mu.Unlock()
		}
	})
}

// Goroutines sorts xs with the "plain Java threads" expression: spawn a
// goroutine per sub-range above threshold, bounded by maxDepth levels of
// spawning, joined with a WaitGroup.
func Goroutines(xs []int, threshold, maxDepth int) {
	if threshold < insertionThreshold {
		threshold = insertionThreshold
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go goQuick(xs, 0, len(xs)-1, threshold, maxDepth, &wg)
	wg.Wait()
}

func goQuick(xs []int, lo, hi, threshold, depth int, wg *sync.WaitGroup) {
	defer wg.Done()
	for hi-lo >= threshold && depth > 0 {
		p := partition(xs, lo, hi)
		wg.Add(1)
		go goQuick(xs, lo, p, threshold, depth-1, wg)
		lo = p + 1
		depth--
	}
	seqQuick(xs, lo, hi)
}
