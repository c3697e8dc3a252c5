package pyjama

// For2D is the "#omp for collapse(2)" construct: the n1 x n2 iteration
// space is flattened and workshared as one loop, which balances far better
// than distributing only the outer loop when n1 is small relative to the
// team. Implicit barrier at the end.
//
//parcvet:ignore unused api Pyjama worksharing construct
func (tc *TC) For2D(n1, n2 int, sched Schedule, body func(i, j int)) {
	tc.For2DNoWait(n1, n2, sched, body)
	tc.Barrier()
}

// For2DNoWait is For2D without the trailing barrier.
func (tc *TC) For2DNoWait(n1, n2 int, sched Schedule, body func(i, j int)) {
	if n1 <= 0 || n2 <= 0 {
		// Still consume a worksharing slot so SPMD pairing stays aligned
		// across team members that pass different (degenerate) bounds.
		tc.ForNoWait(0, sched, func(int) {})
		return
	}
	tc.ForNoWait(n1*n2, sched, func(k int) {
		body(k/n2, k%n2)
	})
}

// ForRange is a convenience over For for iterating [lo, hi) rather than
// [0, n): OpenMP canonical loops allow arbitrary bounds.
//
//parcvet:ignore unused api Pyjama worksharing construct
func (tc *TC) ForRange(lo, hi int, sched Schedule, body func(i int)) {
	tc.For(hi-lo, sched, func(i int) { body(lo + i) })
}
