package experiments

import (
	"time"

	"parc751/internal/metrics"
)

// pair is one sequential-versus-parallel comparison, the study every
// project of §IV-C makes: two calls that compute the same output from
// the same input, and the finding that records whether they did.
type pair struct {
	name     string
	size     int
	seq, par func()      // each call computes a fresh output
	same     func() bool // the last seq and par outputs are identical
	finding  string
}

// comparison declares a pair whose sides return a T. same is an exact
// equality (==, slices.Equal, maps.Equal), never a tolerance.
func comparison[T any](name string, size int, seq, par func() T, same func(a, b T) bool, finding string) pair {
	var s, p T
	return pair{name: name, size: size, finding: finding,
		seq:  func() { s = seq() },
		par:  func() { p = par() },
		same: func() bool { return same(s, p) }}
}

// timing is one pair's best sequential and parallel wall-clock time.
type timing struct {
	name     string
	seq, par time.Duration
}

func (t timing) speedup() float64 { return metrics.Speedup(float64(t.seq), float64(t.par)) }

// compare runs both sides of every pair once and records its equality
// finding, then times each side, best of reps calls, and renders one
// table: kernel | size | seq | parallel | identical | speedup. The
// equality check stays outside the timed calls.
func compare(res *Result, title string, reps int, pairs ...pair) (string, []timing) {
	tab := metrics.NewTable(title, "kernel", "size", "seq", "parallel", "identical", "speedup")
	times := make([]timing, len(pairs))
	for i, p := range pairs {
		p.seq()
		p.par()
		same := p.same()
		res.ok(p.finding, same)
		t := timing{p.name, best(reps, p.seq), best(reps, p.par)}
		tab.AddRow(p.name, p.size, t.seq.String(), t.par.String(), same, t.speedup())
		times[i] = t
	}
	return tab.String(), times
}

// timeIt is f's wall-clock time over one call.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// best is f's shortest wall-clock time over reps calls.
func best(reps int, f func()) time.Duration {
	d := timeIt(f)
	for r := 1; r < reps; r++ {
		d = min(d, timeIt(f))
	}
	return d
}

// eq is == as a function: the equality check of a pair whose output is
// comparable.
func eq[T comparable](a, b T) bool { return a == b }
