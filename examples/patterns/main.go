// Patterns example (§V-B outcome): the parallel-programming pattern
// library built on Parallel Task — switchable sequential/parallel
// execution behind one interface, a worker farm, a dataflow pipeline, and
// the divide-and-conquer skeleton. Run with:
//
//	go run ./examples/patterns
package main

import (
	"fmt"
	"strings"

	"parc751/internal/patterns"
	"parc751/internal/ptask"
)

func main() {
	rt := ptask.NewRuntime(4)
	defer rt.Shutdown()

	// One call site, interchangeable execution strategies.
	strategy := patterns.Switchable{
		Seq:       patterns.SeqMapper{},
		Par:       patterns.ChunkedMapper{RT: rt, Chunk: 64},
		Threshold: 256, // small problems stay sequential
	}
	squares := make([]int, 1000)
	strategy.Map(len(squares), func(i int) { squares[i] = i * i })
	fmt.Println("switchable map:", squares[31], squares[999])

	// A worker farm over string jobs.
	farm := patterns.Farm[string, string]{
		RT:   rt,
		Work: func(s string) (string, error) { return strings.ToUpper(s), nil },
	}
	out, err := farm.Process([]string{"parallel", "task", "patterns"})
	if err != nil {
		panic(err)
	}
	fmt.Println("farm:", out)

	// A three-stage pipeline; items flow through stages concurrently.
	pipe := patterns.Pipeline[int]{RT: rt, Stages: []patterns.Stage[int]{
		func(x int) int { return x + 1 },
		func(x int) int { return x * x },
		func(x int) int { return x - 1 },
	}}
	fmt.Println("pipeline:", pipe.Run([]int{1, 2, 3, 4}))

	// Divide and conquer: maximum of a slice.
	type span struct{ lo, hi int }
	data := make([]int, 4096)
	for i := range data {
		data[i] = int(int64(i) * 2654435761 % 100003)
	}
	dc := patterns.DivideConquer[span, int]{
		RT:     rt,
		IsBase: func(s span) bool { return s.hi-s.lo <= 256 },
		Solve: func(s span) int {
			m := data[s.lo]
			for _, v := range data[s.lo:s.hi] {
				if v > m {
					m = v
				}
			}
			return m
		},
		Split: func(s span) []span {
			mid := (s.lo + s.hi) / 2
			return []span{{s.lo, mid}, {mid, s.hi}}
		},
		Merge: func(rs []int) int {
			if rs[0] > rs[1] {
				return rs[0]
			}
			return rs[1]
		},
	}
	fmt.Println("divide&conquer max:", dc.Run(span{0, len(data)}))
}
