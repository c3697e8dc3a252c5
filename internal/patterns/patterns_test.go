package patterns

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"

	"parc751/internal/ptask"
)

func newRT(t *testing.T, workers int) *ptask.Runtime {
	t.Helper()
	rt := ptask.NewRuntime(workers)
	t.Cleanup(rt.Shutdown)
	return rt
}

func mapperSet(rt *ptask.Runtime) map[string]Mapper {
	return map[string]Mapper{
		"seq":     SeqMapper{},
		"task":    ChunkedMapper{RT: rt, Chunk: 1},
		"chunked": ChunkedMapper{RT: rt, Chunk: 16},
		"switch": Switchable{Seq: SeqMapper{}, Par: ChunkedMapper{RT: rt, Chunk: 1},
			Threshold: 32},
	}
}

func TestMappersCoverEveryIndex(t *testing.T) {
	rt := newRT(t, 4)
	for name, m := range mapperSet(rt) {
		for _, n := range []int{0, 1, 31, 32, 100} {
			counts := make([]atomic.Int32, n)
			m.Map(n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if counts[i].Load() != 1 {
					t.Fatalf("%s n=%d: index %d ran %d times", name, n, i, counts[i].Load())
				}
			}
		}
	}
}

func TestMappersAgreeProperty(t *testing.T) {
	rt := newRT(t, 3)
	ms := mapperSet(rt)
	f := func(nRaw uint8) bool {
		n := int(nRaw)
		want := int64(n) * int64(n+1) / 2
		for _, m := range ms {
			var sum atomic.Int64
			m.Map(n, func(i int) { sum.Add(int64(i + 1)) })
			if sum.Load() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSwitchableThreshold(t *testing.T) {
	rt := newRT(t, 2)
	var parCalls atomic.Int32
	probe := mapperFunc(func(n int, body func(int)) {
		parCalls.Add(1)
		SeqMapper{}.Map(n, body)
	})
	s := Switchable{Seq: SeqMapper{}, Par: probe, Threshold: 50}
	s.Map(10, func(int) {})
	if parCalls.Load() != 0 {
		t.Fatal("small problem went parallel")
	}
	s.Map(100, func(int) {})
	if parCalls.Load() != 1 {
		t.Fatal("large problem did not go parallel")
	}
	// Nil parallel implementation degrades to sequential.
	s2 := Switchable{Seq: SeqMapper{}, Threshold: 0}
	ran := 0
	s2.Map(5, func(int) { ran++ })
	if ran != 5 {
		t.Fatal("nil-par switchable broken")
	}
	_ = rt
}

// mapperFunc adapts a function to Mapper for test probes.
type mapperFunc func(n int, body func(int))

func (f mapperFunc) Map(n int, body func(int)) { f(n, body) }

func TestFarmOrderAndErrors(t *testing.T) {
	rt := newRT(t, 4)
	f := Farm[int, string]{RT: rt, Work: func(j int) (string, error) {
		if j == 13 {
			return "", errors.New("unlucky")
		}
		return fmt.Sprintf("job%d", j), nil
	}}
	jobs := make([]int, 50)
	for i := range jobs {
		jobs[i] = i
	}
	results, err := f.Process(jobs)
	if err == nil {
		t.Fatal("farm swallowed the job error")
	}
	if len(results) != 50 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if i == 13 {
			continue
		}
		if r != fmt.Sprintf("job%d", i) {
			t.Fatalf("result %d = %q (order broken)", i, r)
		}
	}
}

func TestFarmEmpty(t *testing.T) {
	rt := newRT(t, 2)
	f := Farm[int, int]{RT: rt, Work: func(j int) (int, error) { return j, nil }}
	results, err := f.Process(nil)
	if err != nil || len(results) != 0 {
		t.Fatalf("empty farm = %v, %v", results, err)
	}
}

func TestPipelineAppliesStagesInOrder(t *testing.T) {
	rt := newRT(t, 4)
	p := Pipeline[int]{RT: rt, Stages: []Stage[int]{
		func(x int) int { return x + 1 },
		func(x int) int { return x * 10 },
		func(x int) int { return x - 3 },
	}}
	out := p.Run([]int{0, 1, 2, 3, 4})
	for i, v := range out {
		want := (i+1)*10 - 3
		if v != want {
			t.Fatalf("item %d = %d, want %d", i, v, want)
		}
	}
}

func TestPipelineNoStages(t *testing.T) {
	rt := newRT(t, 2)
	p := Pipeline[string]{RT: rt}
	out := p.Run([]string{"a", "b"})
	if len(out) != 2 || out[0] != "a" || out[1] != "b" {
		t.Fatalf("identity pipeline = %v", out)
	}
}

func TestPipelineEmptyInput(t *testing.T) {
	rt := newRT(t, 2)
	p := Pipeline[int]{RT: rt, Stages: []Stage[int]{func(x int) int { return x }}}
	if out := p.Run(nil); len(out) != 0 {
		t.Fatalf("empty pipeline output = %v", out)
	}
}

func TestPipelineStageOrderingPerItem(t *testing.T) {
	// Every item must observe stage s-1's effect before stage s runs:
	// encode the visited stages in the value itself.
	rt := newRT(t, 4)
	const stages = 5
	var sts []Stage[int]
	for s := 0; s < stages; s++ {
		s := s
		sts = append(sts, func(x int) int {
			// x must contain exactly stages 0..s-1 already.
			if x != (1<<s)-1 {
				return -1000000 // poison: out-of-order execution
			}
			return x | 1<<s
		})
	}
	p := Pipeline[int]{RT: rt, Stages: sts}
	items := make([]int, 20) // all zero
	out := p.Run(items)
	for i, v := range out {
		if v != (1<<stages)-1 {
			t.Fatalf("item %d saw out-of-order stages: %d", i, v)
		}
	}
}

func TestDivideConquerSum(t *testing.T) {
	rt := newRT(t, 4)
	type rng struct{ lo, hi int }
	dc := DivideConquer[rng, int]{
		RT:     rt,
		IsBase: func(p rng) bool { return p.hi-p.lo <= 8 },
		Solve: func(p rng) int {
			s := 0
			for i := p.lo; i < p.hi; i++ {
				s += i
			}
			return s
		},
		Split: func(p rng) []rng {
			mid := (p.lo + p.hi) / 2
			return []rng{{p.lo, mid}, {mid, p.hi}}
		},
		Merge: func(rs []int) int { return rs[0] + rs[1] },
	}
	if got := dc.Run(rng{0, 1000}); got != 499500 {
		t.Fatalf("sum = %d", got)
	}
}

func TestDivideConquerSingleWorkerNoDeadlock(t *testing.T) {
	rt := newRT(t, 1)
	type rng struct{ lo, hi int }
	dc := DivideConquer[rng, int]{
		RT:     rt,
		IsBase: func(p rng) bool { return p.hi-p.lo <= 4 },
		Solve:  func(p rng) int { return p.hi - p.lo },
		Split: func(p rng) []rng {
			mid := (p.lo + p.hi) / 2
			return []rng{{p.lo, mid}, {mid, p.hi}}
		},
		Merge: func(rs []int) int { return rs[0] + rs[1] },
	}
	if got := dc.Run(rng{0, 256}); got != 256 {
		t.Fatalf("count = %d", got)
	}
}

func BenchmarkChunkedMapper(b *testing.B) {
	rt := ptask.NewRuntime(4)
	defer rt.Shutdown()
	m := ChunkedMapper{RT: rt, Chunk: 25}
	for i := 0; i < b.N; i++ {
		m.Map(100, func(int) {})
	}
}

func BenchmarkPipeline(b *testing.B) {
	rt := ptask.NewRuntime(4)
	defer rt.Shutdown()
	p := Pipeline[int]{RT: rt, Stages: []Stage[int]{
		func(x int) int { return x + 1 },
		func(x int) int { return x * 2 },
	}}
	items := make([]int, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Run(items)
	}
}
