package reduction_test

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"parc751/internal/pyjama"
	"parc751/internal/reduction"
	"parc751/internal/xrand"
)

// The parallel reduction is pyjama.ParallelForReduce. These tests check
// that it agrees with the sequential Fold for every stock reducer: each
// team member folds a static block, and the partials combine in thread
// order.

// parallel reduces the n elements elem(0..n-1) with nthreads Pyjama
// threads over static blocks.
func parallel[T any](nthreads, n int, r reduction.Reducer[T], elem func(i int) T) T {
	return pyjama.ParallelForReduce(nthreads, n, pyjama.Static(0), r,
		func(i int, acc T) T { return r.Combine(acc, elem(i)) })
}

// TestForReduceEqualsFold is the associativity check for every scalar
// reducer, over random inputs and team sizes.
func TestForReduceEqualsFold(t *testing.T) {
	f := func(seed uint64, nRaw, pRaw uint8) bool {
		r := xrand.New(seed)
		n := int(nRaw % 65)
		p := 1 + int(pRaw%8)
		xs := make([]int, n)
		for i := range xs {
			xs[i] = r.Intn(1000) - 500
		}
		elem := func(i int) int { return xs[i] }
		for _, red := range []reduction.Reducer[int]{
			reduction.Sum[int](), reduction.Min[int](math.MaxInt), reduction.Max[int](math.MinInt),
		} {
			if parallel(p, n, red, elem) != reduction.Fold(red, xs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestForReduceEdgeCases: an empty loop yields the identity, and a
// singleton or an odd count with more threads than elements is exact.
func TestForReduceEdgeCases(t *testing.T) {
	for _, tc := range []struct{ p, n, want int }{{4, 0, 0}, {4, 1, 7}, {2, 3, 21}} {
		if got := parallel(tc.p, tc.n, reduction.Sum[int](), func(int) int { return 7 }); got != tc.want {
			t.Errorf("p=%d n=%d: sum = %d, want %d", tc.p, tc.n, got, tc.want)
		}
	}
}

// TestParallelEqualsSequential: the headline property — parallel reduction
// must agree with the sequential fold for every team size.
func TestParallelEqualsSequential(t *testing.T) {
	r := xrand.New(31)
	const n = 10000
	vals := make([]int, n)
	want := 0
	for i := range vals {
		vals[i] = r.Intn(100)
		want += vals[i]
	}
	for _, p := range []int{1, 2, 3, 4, 7, 16} {
		got := parallel(p, n, reduction.Sum[int](), func(i int) int { return vals[i] })
		if got != want {
			t.Errorf("p=%d sum = %d, want %d", p, got, want)
		}
	}
}

func TestParallelDegenerate(t *testing.T) {
	if got := parallel(4, 0, reduction.Sum[int](), func(i int) int { return 1 }); got != 0 {
		t.Errorf("n=0 -> %d", got)
	}
	if got := parallel(0, 5, reduction.Sum[int](), func(i int) int { return i }); got != 10 {
		t.Errorf("p=0 clamp -> %d", got)
	}
	if got := parallel(16, 3, reduction.Sum[int](), func(i int) int { return i }); got != 3 {
		t.Errorf("p>n -> %d", got)
	}
}

func TestAppendPreservesBlockOrder(t *testing.T) {
	// Static blocks combined in thread order must reconstruct the
	// original order.
	const n = 500
	got := parallel(7, n, reduction.Append[int](), func(i int) []int { return reduction.Map(i) })
	if len(got) != n {
		t.Fatalf("len = %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken at %d: %d", i, v)
		}
	}
}

func TestUnion(t *testing.T) {
	got := parallel(4, 100, reduction.Union[int](), func(i int) map[int]struct{} {
		return map[int]struct{}{i % 10: {}}
	})
	if len(got) != 10 {
		t.Fatalf("union size = %d", len(got))
	}
	for k := 0; k < 10; k++ {
		if _, ok := got[k]; !ok {
			t.Fatalf("missing key %d", k)
		}
	}
}

func TestHistogramWordCount(t *testing.T) {
	words := []string{"a", "b", "a", "c", "a", "b"}
	got := parallel(3, len(words), reduction.Histogram[string](), func(i int) map[string]int {
		return map[string]int{words[i]: 1}
	})
	if got["a"] != 3 || got["b"] != 2 || got["c"] != 1 {
		t.Fatalf("histogram = %v", got)
	}
}

func TestHistogramMatchesSequential(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 50 + r.Intn(200)
		keys := make([]int, n)
		for i := range keys {
			keys[i] = r.Intn(10)
		}
		seq := map[int]int{}
		for _, k := range keys {
			seq[k]++
		}
		par := parallel(5, n, reduction.Histogram[int](), func(i int) map[int]int {
			return map[int]int{keys[i]: 1}
		})
		return reflect.DeepEqual(seq, par)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTopK(t *testing.T) {
	less := func(a, b int) bool { return a < b }
	got := parallel(4, 100, reduction.TopK(5, less), func(i int) []int { return reduction.Map(i * 7 % 100) })
	if len(got) != 5 {
		t.Fatalf("topk len = %d", len(got))
	}
	if !sort.IntsAreSorted(got) {
		t.Fatalf("topk not sorted: %v", got)
	}
	// i*7 % 100 over i in [0,100) covers 0..99, so top 5 are 95..99.
	want := []int{95, 96, 97, 98, 99}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("topk = %v, want %v", got, want)
	}
}

func TestParallelObjectReductionsRaceFree(t *testing.T) {
	// Run repeatedly; under -race this flushes out shared-identity bugs.
	for trial := 0; trial < 10; trial++ {
		got := parallel(8, 800, reduction.Histogram[int](), func(i int) map[int]int {
			return map[int]int{i % 3: 1}
		})
		if got[0]+got[1]+got[2] != 800 {
			t.Fatalf("lost updates: %v", got)
		}
	}
}

func BenchmarkParallelSum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		parallel(4, 100000, reduction.Sum[int](), func(i int) int { return i })
	}
}

func BenchmarkHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		parallel(4, 10000, reduction.Histogram[int](), func(i int) map[int]int {
			return map[int]int{i % 50: 1}
		})
	}
}
