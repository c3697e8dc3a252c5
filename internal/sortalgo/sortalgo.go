// Package sortalgo is project 2 of the reproduced paper: parallel
// quicksort implemented three ways with object-oriented language support —
// Parallel Task, Pyjama, and plain threads (goroutines here) — plus the
// sequential baseline. The students' research component was expressing a
// classically-parallelised algorithm through the two PARC models; the
// bench harness compares the same three expressions.
//
// All versions split their ranges with one partition, a block Hoare
// partition whose result is identical, element for element and split
// point for split point, to the scalar Hoare loop. The split points decide
// the task tree, so the spawn count, recorded schedules and replayed dumps
// do not depend on how the partition is implemented. Only the sequential
// leaves, which are never split into tasks, partition another way.
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

// blockSize is the length of the block partition's offset blocks: each
// side scans blockSize elements before any swap, and a uint8 holds every
// offset.
const blockSize = 128

// leafSize is the range length below which seqQuick stops calling
// partition: with less than two blocks to scan, most of a block partition
// is its scalar tail.
const leafSize = 2 * blockSize

// Sequential sorts xs in place with median-of-three quicksort, the
// baseline every parallel version is verified against and compared to.
func Sequential(xs []int) {
	seqQuick(xs, 0, len(xs)-1)
}

// seqQuick sorts xs[lo..hi] with partition down to leafSize, then with
// leafQuick. No range of it is ever handed to another task, so its leaves
// may split differently from partition: a sorted range is the same
// whichever way it was split.
func seqQuick(xs []int, lo, hi int) {
	for hi-lo >= leafSize {
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
	leafQuick(xs, lo, hi)
}

// leafQuick sorts a short range with branch-free Lomuto partitions and
// insertion sort below insertionThreshold. A pivot equal to the range's
// smallest key sends nothing left; a second branch-free pass then gathers
// the keys equal to it, so equal keys cost linear time, not quadratic.
func leafQuick(xs []int, lo, hi int) {
	for hi-lo >= insertionThreshold {
		mid := lo + (hi-lo)/2
		medianOfThree(xs, lo, mid, hi)
		pivot := xs[mid]
		xs[mid], xs[hi] = xs[hi], xs[mid]
		// xs[lo..k-1] < pivot <= xs[k..r-1]: every element is swapped
		// into place, and k advances by the comparison's 0 or 1.
		k := lo
		for r := lo; r < hi; r++ {
			v := xs[r]
			xs[r] = xs[k]
			xs[k] = v
			k += b2i(v < pivot)
		}
		xs[k], xs[hi] = xs[hi], xs[k]
		e := k + 1
		if k == lo {
			// Nothing is below the pivot: gather its copies, leaving
			// xs[k..e-1] == pivot < xs[e..hi].
			for r := k + 1; r <= hi; r++ {
				v := xs[r]
				xs[r] = xs[e]
				xs[e] = v
				e += b2i(v <= pivot)
			}
		}
		if k-lo < hi-e {
			leafQuick(xs, lo, k-1)
			lo = e
		} else {
			leafQuick(xs, e, hi)
			hi = k - 1
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

// medianOfThree orders xs[lo], xs[mid], xs[hi], leaving their median at mid.
func medianOfThree(xs []int, lo, mid, hi int) {
	if xs[mid] < xs[lo] {
		xs[mid], xs[lo] = xs[lo], xs[mid]
	}
	if xs[hi] < xs[lo] {
		xs[hi], xs[lo] = xs[lo], xs[hi]
	}
	if xs[hi] < xs[mid] {
		xs[hi], xs[mid] = xs[mid], xs[hi]
	}
}

// b2i is 1 for true and 0 for false; the compiler turns it into a
// flag-to-register move (SETcc on amd64), so counting with it takes no
// branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// partition is Hoare partition with median-of-three pivot selection; it
// returns p such that xs[lo..p] <= pivot <= xs[p+1..hi]. Every parallel
// version splits its tasks at p, so its contract is exact: for every input
// it leaves the same permutation and returns the same p as the scalar
// Hoare loop (hoarePartition in the tests).
//
// It is a block partition (BlockQuicksort, Edelkamp & Weiß 2016). Each
// side scans a block of the unscanned window and records, without a
// branch, the offsets of its stops: left keys >= pivot and right keys <=
// pivot. Hoare swaps the k-th left stop with the k-th right stop, so
// swapping the pending offsets in pairs performs Hoare's swaps in Hoare's
// order. An empty block refills while the window still holds one; then
// the scalar loop resumes at the first pending stop on each side, or at
// the window edge, and repeats Hoare's remaining decisions exactly.
func partition(xs []int, lo, hi int) int {
	mid := lo + (hi-lo)/2
	medianOfThree(xs, lo, mid, hi)
	pivot := xs[mid]

	var offL, offR [blockSize]uint8
	l, r := lo, hi // the unscanned window xs[l..r]
	// A left offset o is xs[baseL+o], a right offset o is xs[baseR-o];
	// the pending ones are off[start : start+num].
	var baseL, startL, numL, baseR, startR, numR int
	for {
		if numL == 0 && r-l+1 >= blockSize {
			blk := (*[blockSize]int)(xs[l : l+blockSize])
			baseL, startL = l, 0
			// Unrolled by four: the compiler does not unroll, and the
			// loop's own compare and branch cost as much as this body.
			for o := 0; o < blockSize; o += 4 {
				offL[numL&(blockSize-1)] = uint8(o)
				numL += b2i(blk[o] >= pivot)
				offL[numL&(blockSize-1)] = uint8(o + 1)
				numL += b2i(blk[o+1] >= pivot)
				offL[numL&(blockSize-1)] = uint8(o + 2)
				numL += b2i(blk[o+2] >= pivot)
				offL[numL&(blockSize-1)] = uint8(o + 3)
				numL += b2i(blk[o+3] >= pivot)
			}
			l += blockSize
		}
		if numR == 0 && r-l+1 >= blockSize {
			blk := (*[blockSize]int)(xs[r-blockSize+1 : r+1])
			baseR, startR = r, 0
			for o := 0; o < blockSize; o += 4 {
				offR[numR&(blockSize-1)] = uint8(o)
				numR += b2i(blk[blockSize-1-o] <= pivot)
				offR[numR&(blockSize-1)] = uint8(o + 1)
				numR += b2i(blk[blockSize-2-o] <= pivot)
				offR[numR&(blockSize-1)] = uint8(o + 2)
				numR += b2i(blk[blockSize-3-o] <= pivot)
				offR[numR&(blockSize-1)] = uint8(o + 3)
				numR += b2i(blk[blockSize-4-o] <= pivot)
			}
			r -= blockSize
		}
		m := min(numL, numR)
		if m == 0 && r-l+1 < blockSize {
			break
		}
		pl, pr := offL[startL:startL+m], offR[startR:startR+m]
		for k, o := range pl {
			a, b := baseL+int(o), baseR-int(pr[k])
			xs[a], xs[b] = xs[b], xs[a]
		}
		startL += m
		numL -= m
		startR += m
		numR -= m
	}

	i, j := l-1, r+1
	if numL > 0 {
		i = baseL + int(offL[startL]) - 1
	}
	if numR > 0 {
		j = baseR - int(offR[startR]) + 1
	}
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
