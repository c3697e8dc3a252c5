package sortalgo

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"parc751/internal/ptask"
	"parc751/internal/workload"
	"parc751/internal/xrand"
)

// checkSorted verifies output is sorted AND a permutation of the input.
func checkSorted(t *testing.T, name string, orig, sorted []int) {
	t.Helper()
	if len(orig) != len(sorted) {
		t.Fatalf("%s: length changed", name)
	}
	if !sort.IntsAreSorted(sorted) {
		t.Fatalf("%s: output not sorted", name)
	}
	want := append([]int(nil), orig...)
	sort.Ints(want)
	for i := range want {
		if sorted[i] != want[i] {
			t.Fatalf("%s: not a permutation at %d: %d != %d", name, i, sorted[i], want[i])
		}
	}
}

func inputs() map[string][]int {
	return map[string][]int{
		"empty":        {},
		"single":       {5},
		"pair":         {9, 1},
		"random":       workload.IntArray(1, 5000, 100000),
		"duplicates":   workload.IntArray(2, 5000, 10),
		"sorted":       workload.NearlySorted(3, 3000, 0),
		"nearlySorted": workload.NearlySorted(4, 3000, 0.02),
		"reversed":     reversed(3000),
		"allEqual":     constant(2000, 7),
	}
}

func reversed(n int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = n - i
	}
	return xs
}

func constant(n, v int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

func TestSequential(t *testing.T) {
	for name, in := range inputs() {
		xs := append([]int(nil), in...)
		Sequential(xs)
		checkSorted(t, "seq/"+name, in, xs)
	}
}

func TestPTask(t *testing.T) {
	rt := ptask.NewRuntime(4)
	defer rt.Shutdown()
	for name, in := range inputs() {
		xs := append([]int(nil), in...)
		PTask(rt, xs, 256)
		checkSorted(t, "ptask/"+name, in, xs)
	}
}

func TestPTaskSingleWorker(t *testing.T) {
	rt := ptask.NewRuntime(1)
	defer rt.Shutdown()
	xs := workload.IntArray(9, 20000, 1000000)
	orig := append([]int(nil), xs...)
	PTask(rt, xs, 512)
	checkSorted(t, "ptask/1worker", orig, xs)
}

func TestPyjama(t *testing.T) {
	for name, in := range inputs() {
		for _, threads := range []int{1, 2, 4} {
			xs := append([]int(nil), in...)
			Pyjama(threads, xs, 256)
			checkSorted(t, "pyjama/"+name, in, xs)
		}
	}
}

func TestGoroutines(t *testing.T) {
	for name, in := range inputs() {
		xs := append([]int(nil), in...)
		Goroutines(xs, 256, 6)
		checkSorted(t, "goroutines/"+name, in, xs)
	}
}

func TestGoroutinesZeroDepthIsSequential(t *testing.T) {
	xs := workload.IntArray(5, 2000, 500)
	orig := append([]int(nil), xs...)
	Goroutines(xs, 256, 0)
	checkSorted(t, "goroutines/depth0", orig, xs)
}

// Property: every implementation agrees with sort.Ints on random input.
func TestAllImplementationsAgree(t *testing.T) {
	rt := ptask.NewRuntime(2)
	defer rt.Shutdown()
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw % 2000)
		r := xrand.New(seed)
		base := make([]int, n)
		for i := range base {
			base[i] = r.Intn(500) - 250
		}
		want := append([]int(nil), base...)
		sort.Ints(want)

		for _, sorter := range []func([]int){
			Sequential,
			func(xs []int) { PTask(rt, xs, 128) },
			func(xs []int) { Pyjama(3, xs, 128) },
			func(xs []int) { Goroutines(xs, 128, 4) },
		} {
			xs := append([]int(nil), base...)
			sorter(xs)
			for i := range want {
				if xs[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionInvariant(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%200) + 2
		r := xrand.New(seed)
		xs := make([]int, n)
		for i := range xs {
			xs[i] = r.Intn(50)
		}
		p := partition(xs, 0, n-1)
		if p < 0 || p >= n-1 {
			return false
		}
		maxLeft := xs[0]
		for _, v := range xs[:p+1] {
			if v > maxLeft {
				maxLeft = v
			}
		}
		for _, v := range xs[p+1:] {
			if v < maxLeft {
				// Hoare partition guarantees left <= pivot <= right,
				// so any right element below the left max breaks it.
				for _, lv := range xs[:p+1] {
					if v < lv {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLargeRandom(t *testing.T) {
	rt := ptask.NewRuntime(4)
	defer rt.Shutdown()
	xs := workload.IntArray(42, 200000, 1<<30)
	orig := append([]int(nil), xs...)
	PTask(rt, xs, 2048)
	checkSorted(t, "ptask/large", orig, xs)
}

func BenchmarkSequential100k(b *testing.B) {
	base := workload.IntArray(7, 100000, 1<<30)
	xs := make([]int, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(xs, base)
		Sequential(xs)
	}
}

func BenchmarkPTask100k(b *testing.B) {
	rt := ptask.NewRuntime(4)
	defer rt.Shutdown()
	base := workload.IntArray(7, 100000, 1<<30)
	xs := make([]int, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(xs, base)
		PTask(rt, xs, 4096)
	}
}

func BenchmarkPyjama100k(b *testing.B) {
	base := workload.IntArray(7, 100000, 1<<30)
	xs := make([]int, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(xs, base)
		Pyjama(4, xs, 4096)
	}
}

func BenchmarkGoroutines100k(b *testing.B) {
	base := workload.IntArray(7, 100000, 1<<30)
	xs := make([]int, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(xs, base)
		Goroutines(xs, 4096, 8)
	}
}

// hoarePartition is the scalar Hoare partition with median-of-three pivot
// selection that partition must reproduce exactly: same permutation, same
// split point.
func hoarePartition(xs []int, lo, hi int) int {
	mid := lo + (hi-lo)/2
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

// partitionInput is n keys drawn from [0, span) with seed; shape 1 sorts
// them and shape 2 reverses the sorted run.
func partitionInput(seed uint64, n, span, shape int) []int {
	r := xrand.New(seed)
	xs := make([]int, n)
	for i := range xs {
		xs[i] = r.Intn(span)
	}
	switch shape {
	case 1:
		sort.Ints(xs)
	case 2:
		sort.Sort(sort.Reverse(sort.IntSlice(xs)))
	}
	return xs
}

// checkPartitionMatchesHoare partitions two copies of in, one with each
// partition, and fails unless the permutations and split points are equal.
func checkPartitionMatchesHoare(t *testing.T, name string, in []int) {
	t.Helper()
	if len(in) < 2 {
		return
	}
	want := append([]int(nil), in...)
	got := append([]int(nil), in...)
	wp := hoarePartition(want, 0, len(want)-1)
	gp := partition(got, 0, len(got)-1)
	if gp != wp {
		t.Fatalf("%s (n=%d): split at %d, Hoare splits at %d", name, len(in), gp, wp)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s (n=%d): xs[%d] = %d, Hoare leaves %d", name, len(in), i, got[i], want[i])
		}
	}
}

// TestPartitionMatchesHoare holds partition to the scalar oracle on the
// shared inputs, on seeded sizes around the block boundaries with key
// spans down to one value, and on sub-ranges of a larger array.
func TestPartitionMatchesHoare(t *testing.T) {
	for name, in := range inputs() {
		checkPartitionMatchesHoare(t, name, in)
	}
	const B = blockSize
	sizes := []int{2, 3, B - 1, B, B + 1, 2*B - 1, 2 * B, 2*B + 1, 3 * B, 4*B + 3, 1501}
	for _, n := range sizes {
		for _, span := range []int{1, 2, 3, n / 2, n, 3 * n} {
			for shape := 0; shape < 3; shape++ {
				for seed := uint64(0); seed < 4; seed++ {
					in := partitionInput(seed, n, span, shape)
					checkPartitionMatchesHoare(t, fmt.Sprintf("seed %d span %d shape %d", seed, span, shape), in)
				}
			}
		}
	}
	// Sub-ranges: a task partitions xs[lo..hi] inside a larger array.
	xs := partitionInput(99, 20*B, 40*B, 0)
	want := append([]int(nil), xs...)
	for _, rng := range [][2]int{{3, 3 + B}, {B - 1, 5*B + 2}, {7, 20*B - 1}, {0, 2*B + 5}} {
		wp := hoarePartition(want, rng[0], rng[1])
		gp := partition(xs, rng[0], rng[1])
		if gp != wp || !slices.Equal(xs, want) {
			t.Fatalf("range %v: split at %d, Hoare at %d, arrays equal %v", rng, gp, wp, slices.Equal(xs, want))
		}
	}
}

// FuzzPartitionMatchesHoare draws an input from a seed, a size, a key
// span and a shape (random, sorted, reversed), and holds partition to the
// scalar Hoare oracle on it.
func FuzzPartitionMatchesHoare(f *testing.F) {
	f.Add(uint64(1), uint16(blockSize-1), uint16(1000), uint8(0))
	f.Add(uint64(2), uint16(2*blockSize+1), uint16(1), uint8(0))
	f.Add(uint64(3), uint16(4*blockSize+3), uint16(2), uint8(1))
	f.Add(uint64(4), uint16(3000), uint16(9000), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, n, span uint16, shape uint8) {
		size := int(n%4096) + 2
		keys := int(span%8192) + 1
		checkPartitionMatchesHoare(t, "fuzz", partitionInput(seed, size, keys, int(shape%3)))
	})
}

// BenchmarkSequentialShapes sorts 200k random keys, ten distinct keys, one
// key, and sorted and reversed runs.
func BenchmarkSequentialShapes(b *testing.B) {
	const n = 200000
	for _, shape := range []struct {
		name string
		base []int
	}{
		{"random", workload.IntArray(7, n, 1<<30)},
		{"dups10", workload.IntArray(8, n, 10)},
		{"allEqual", constant(n, 7)},
		{"sorted", workload.NearlySorted(9, n, 0)},
		{"reversed", reversed(n)},
	} {
		base := shape.base
		b.Run(shape.name, func(b *testing.B) {
			xs := make([]int, len(base))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(xs, base)
				Sequential(xs)
			}
		})
	}
}
