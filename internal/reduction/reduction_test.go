package reduction

import (
	"math"
	"reflect"
	"testing"
)

func TestFoldSum(t *testing.T) {
	if got := Fold(Sum[int](), []int{1, 2, 3, 4, 5}); got != 15 {
		t.Fatalf("sum = %d", got)
	}
	if got := Fold(Sum[float64](), nil); got != 0 {
		t.Fatalf("empty sum = %g", got)
	}
}

func TestFoldProd(t *testing.T) {
	if got := Fold(Prod[int](), []int{2, 3, 4}); got != 24 {
		t.Fatalf("prod = %d", got)
	}
	if got := Fold(Prod[int](), nil); got != 1 {
		t.Fatalf("empty prod = %d", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []int{5, -2, 9, 0}
	if got := Fold(Min[int](math.MaxInt), xs); got != -2 {
		t.Fatalf("min = %d", got)
	}
	if got := Fold(Max[int](math.MinInt), xs); got != 9 {
		t.Fatalf("max = %d", got)
	}
}

func TestAndOr(t *testing.T) {
	if Fold(And(), []bool{true, true, false}) {
		t.Error("and failed")
	}
	if !Fold(And(), []bool{true, true}) {
		t.Error("and of trues failed")
	}
	if !Fold(Or(), []bool{false, true}) {
		t.Error("or failed")
	}
	if Fold(Or(), nil) {
		t.Error("empty or should be false")
	}
}

func TestMergeMaps(t *testing.T) {
	r := MergeMaps[string](func(a, b int) int { return a + b })
	a := map[string]int{"x": 1, "y": 2}
	b := map[string]int{"y": 3, "z": 4}
	got := r.Combine(a, b)
	want := map[string]int{"x": 1, "y": 5, "z": 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge = %v", got)
	}
}

func TestTopKFewerThanK(t *testing.T) {
	less := func(a, b int) bool { return a < b }
	got := Fold(TopK(10, less), [][]int{{3}, {1}, {2}})
	if !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("topk = %v", got)
	}
}

// TestIdentityFreshness: object identities must be fresh instances, or
// concurrent reductions would share (and corrupt) one map.
func TestIdentityFreshness(t *testing.T) {
	r := Union[int]()
	a := r.Identity()
	b := r.Identity()
	a[1] = struct{}{}
	if len(b) != 0 {
		t.Fatal("identity maps are shared")
	}
}

func BenchmarkFoldSum(b *testing.B) {
	xs := make([]int, 100000)
	for i := range xs {
		xs[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fold(Sum[int](), xs)
	}
}
