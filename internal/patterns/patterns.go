// Package patterns reproduces the §V-B research outcome "the conception
// of parallel programming patterns using Parallel Task": one student
// project used the inheritance and encapsulation features of an
// object-oriented language to let a programmer "elegantly alternate
// between parallel and sequential functionality". In Go that idea maps
// onto interfaces: every pattern here is an Executor with interchangeable
// sequential and parallel implementations, so call sites switch between
// them without changing shape — plus the classic algorithmic skeletons
// (map, farm, pipeline, divide-and-conquer) built on the Parallel Task
// runtime.
package patterns

import (
	"parc751/internal/ptask"
)

// Mapper applies an element transformation to every index of a problem —
// the pattern interface whose implementations are interchangeable.
type Mapper interface {
	// Map invokes body(i) for every i in [0, n).
	Map(n int, body func(i int))
}

// SeqMapper runs the map sequentially — the "alternate to sequential"
// implementation used for debugging, small inputs, or measurement.
type SeqMapper struct{}

// Map implements Mapper.
func (SeqMapper) Map(n int, body func(i int)) {
	for i := 0; i < n; i++ {
		body(i)
	}
}

// ChunkedMapper runs the map as ceil(n/Chunk) tasks over contiguous
// blocks, amortising per-task overhead — the granularity-tuned variant.
type ChunkedMapper struct {
	RT    *ptask.Runtime
	Chunk int
}

// Map implements Mapper.
func (m ChunkedMapper) Map(n int, body func(i int)) {
	chunk := m.Chunk
	if chunk < 1 {
		chunk = 1
	}
	blocks := (n + chunk - 1) / chunk
	multi := ptask.RunMulti(m.RT, blocks, func(b int) (struct{}, error) {
		lo := b * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			body(i)
		}
		return struct{}{}, nil
	})
	_, _ = multi.Results()
}

// Switchable selects between a sequential and a parallel Mapper at
// runtime based on problem size — the pattern the students built: the
// call site stays identical while the execution strategy changes.
type Switchable struct {
	Seq       Mapper
	Par       Mapper
	Threshold int // problems smaller than this run sequentially
}

// Map implements Mapper.
func (s Switchable) Map(n int, body func(i int)) {
	if n < s.Threshold || s.Par == nil {
		s.Seq.Map(n, body)
		return
	}
	s.Par.Map(n, body)
}

// Farm is the master-worker skeleton: jobs are submitted to the runtime
// and results collected in completion order via a channel.
type Farm[J, R any] struct {
	RT   *ptask.Runtime
	Work func(J) (R, error)
}

// Process runs every job through the farm and returns the results in job
// order (errors per job, first error also returned).
func (f Farm[J, R]) Process(jobs []J) ([]R, error) {
	multi := ptask.RunMulti(f.RT, len(jobs), func(i int) (R, error) {
		return f.Work(jobs[i])
	})
	return multi.Results()
}

// Stage is one pipeline stage transforming values.
type Stage[T any] func(T) T

// Pipeline chains stages over a stream of items: item k enters stage s
// only after item k finished stage s-1, and different items occupy
// different stages concurrently — the classic dataflow skeleton expressed
// through task dependences.
type Pipeline[T any] struct {
	RT     *ptask.Runtime
	Stages []Stage[T]
}

// Run pushes all items through the pipeline and returns the fully
// processed items in input order.
func (p Pipeline[T]) Run(items []T) []T {
	if len(p.Stages) == 0 {
		return append([]T(nil), items...)
	}
	// tasks[k] is item k's task for the current stage; each next stage
	// depends on the same item's previous stage. (The per-stage serial
	// order of distinct items is maintained by the scheduler's FIFO
	// handling of equally-ready tasks; correctness only needs the
	// item-chain dependences.)
	tasks := make([]*ptask.Task[T], len(items))
	for k, it := range items {
		it := it
		tasks[k] = ptask.Run(p.RT, func() (T, error) { return p.Stages[0](it), nil })
	}
	for s := 1; s < len(p.Stages); s++ {
		stage := p.Stages[s]
		for k := range tasks {
			prev := tasks[k]
			tasks[k] = ptask.RunAfter(p.RT, []ptask.Dep{prev}, func() (T, error) {
				v, err := prev.Result()
				if err != nil {
					return v, err
				}
				return stage(v), nil
			})
		}
	}
	out := make([]T, len(items))
	for k, t := range tasks {
		v, _ := t.Result()
		out[k] = v
	}
	return out
}

// DivideConquer is the recursive skeleton: problems above the threshold
// split, sub-results merge; below it, the sequential solver runs.
type DivideConquer[P, R any] struct {
	RT *ptask.Runtime
	// IsBase reports whether the problem is small enough to solve
	// directly.
	IsBase func(P) bool
	// Solve handles a base-case problem.
	Solve func(P) R
	// Split divides a problem into sub-problems.
	Split func(P) []P
	// Merge combines sub-results (same order as Split's sub-problems).
	Merge func([]R) R
}

// Run executes the skeleton, spawning one task per sub-problem.
func (d DivideConquer[P, R]) Run(problem P) R {
	if d.IsBase(problem) {
		return d.Solve(problem)
	}
	subs := d.Split(problem)
	multi := ptask.RunMulti(d.RT, len(subs), func(i int) (R, error) {
		return d.Run(subs[i]), nil
	})
	results, _ := multi.Results()
	return d.Merge(results)
}
