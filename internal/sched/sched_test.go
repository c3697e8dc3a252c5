package sched

import (
	"sync"
	"testing"
	"testing/quick"
)

// ptr boxes a test value for the pointer-element deque API.
func ptr(v int) *int { return &v }

func TestDequeLIFOOwner(t *testing.T) {
	d := NewDeque[int](4)
	for i := 0; i < 10; i++ {
		d.PushBottom(ptr(i))
	}
	for i := 9; i >= 0; i-- {
		v, ok := d.PopBottom()
		if !ok || *v != i {
			t.Fatalf("PopBottom = %v,%v want %d", v, ok, i)
		}
	}
	if _, ok := d.PopBottom(); ok {
		t.Fatal("pop from empty deque succeeded")
	}
}

func TestDequeFIFOThief(t *testing.T) {
	d := NewDeque[int](4)
	for i := 0; i < 10; i++ {
		d.PushBottom(ptr(i))
	}
	for i := 0; i < 10; i++ {
		v, ok := d.Steal()
		if !ok || *v != i {
			t.Fatalf("Steal = %v,%v want %d", v, ok, i)
		}
	}
	if _, ok := d.Steal(); ok {
		t.Fatal("steal from empty deque succeeded")
	}
}

func TestDequeMixedEnds(t *testing.T) {
	d := NewDeque[int](2)
	d.PushBottom(ptr(1))
	d.PushBottom(ptr(2))
	d.PushBottom(ptr(3))
	if v, ok := d.Steal(); !ok || *v != 1 {
		t.Fatalf("steal got %v, want 1", v)
	}
	if v, ok := d.PopBottom(); !ok || *v != 3 {
		t.Fatalf("pop got %v, want 3", v)
	}
	if v, ok := d.Steal(); !ok || *v != 2 {
		t.Fatalf("steal got %v, want 2", v)
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d", d.Len())
	}
}

func TestDequeGrowthPreservesOrder(t *testing.T) {
	// Force wrap-around then growth: interleave pushes and steals.
	d := NewDeque[int](4)
	next := 0
	expectSteal := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			d.PushBottom(ptr(next))
			next++
		}
		v, ok := d.Steal()
		if !ok || *v != expectSteal {
			t.Fatalf("round %d: steal = %v,%v want %d", round, v, ok, expectSteal)
		}
		expectSteal++
	}
	// Drain remaining with steals: must be strictly increasing.
	prev := expectSteal - 1
	for {
		v, ok := d.Steal()
		if !ok {
			break
		}
		if *v != prev+1 {
			t.Fatalf("steal order broken: got %d after %d", *v, prev)
		}
		prev = *v
	}
}

// Property: any interleaving of pushes, pops and steals conserves elements
// (no loss, no duplication).
func TestDequeConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		d := NewDeque[int](2)
		pushed := map[int]bool{}
		removed := map[int]bool{}
		next := 0
		for _, op := range ops {
			switch op % 3 {
			case 0:
				d.PushBottom(ptr(next))
				pushed[next] = true
				next++
			case 1:
				if v, ok := d.PopBottom(); ok {
					if removed[*v] || !pushed[*v] {
						return false
					}
					removed[*v] = true
				}
			case 2:
				if v, ok := d.Steal(); ok {
					if removed[*v] || !pushed[*v] {
						return false
					}
					removed[*v] = true
				}
			}
		}
		for {
			v, ok := d.PopBottom()
			if !ok {
				break
			}
			if removed[*v] || !pushed[*v] {
				return false
			}
			removed[*v] = true
		}
		return len(removed) == len(pushed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDequeConcurrentOwnerAndThieves(t *testing.T) {
	d := NewDeque[int](8)
	const n = 10000
	var got sync.Map
	var wg sync.WaitGroup
	// Owner pushes then pops half.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			d.PushBottom(ptr(i))
			if i%2 == 1 {
				if v, ok := d.PopBottom(); ok {
					if _, dup := got.LoadOrStore(*v, true); dup {
						t.Errorf("duplicate element %d", *v)
					}
				}
			}
		}
	}()
	// Thieves steal concurrently.
	for th := 0; th < 4; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if v, ok := d.Steal(); ok {
					if _, dup := got.LoadOrStore(*v, true); dup {
						t.Errorf("duplicate stolen element %d", *v)
					}
				}
			}
		}()
	}
	wg.Wait()
	// Drain the rest.
	for {
		v, ok := d.PopBottom()
		if !ok {
			break
		}
		if _, dup := got.LoadOrStore(*v, true); dup {
			t.Errorf("duplicate drained element %d", *v)
		}
	}
	count := 0
	got.Range(func(_, _ any) bool { count++; return true })
	if count != n {
		t.Fatalf("conserved %d of %d elements", count, n)
	}
}

func TestDequeStats(t *testing.T) {
	d := NewDeque[int](2)
	d.PushBottom(ptr(1))
	d.PushBottom(ptr(2))
	d.PopBottom()
	d.Steal()
	d.Steal() // fails
	d.PopBottom()
	s := d.Stats()
	if s.Pushes != 2 || s.Pops != 1 || s.Steals != 1 || s.FailedSteal != 1 || s.FailedPops != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// ---- StealInto (steal-half batch transfer) ----

// StealInto with a nil destination degrades to a single steal.
func TestStealIntoNilDestIsSteal(t *testing.T) {
	d := NewDeque[int](4)
	for i := 0; i < 5; i++ {
		d.PushBottom(ptr(i))
	}
	v, ok := d.StealInto(nil)
	if !ok || *v != 0 {
		t.Fatalf("StealInto(nil) = %v,%v want 0", v, ok)
	}
	if d.Len() != 4 {
		t.Fatalf("Len = %d after single steal, want 4", d.Len())
	}
	if s := d.Stats(); s.BatchSteals != 0 || s.BatchMoved != 0 {
		t.Fatalf("nil-dest steal counted as a batch: %+v", s)
	}
}

// A batch round takes the first element plus at most half the remainder
// (capped), all in FIFO order, into the thief's own deque.
func TestStealIntoTakesHalfInOrder(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 40, 100} {
		victim := NewDeque[int](4)
		dst := NewDeque[int](4)
		for i := 0; i < n; i++ {
			victim.PushBottom(ptr(i))
		}
		first, ok := victim.StealInto(dst)
		if !ok || *first != 0 {
			t.Fatalf("n=%d: first = %v,%v want 0", n, first, ok)
		}
		wantMoved := (n - 1 + 1) / 2 // half of what remained after the first
		if wantMoved > stealHalfCap {
			wantMoved = stealHalfCap
		}
		if dst.Len() != wantMoved {
			t.Fatalf("n=%d: dst.Len = %d want %d", n, dst.Len(), wantMoved)
		}
		// Transferred elements keep FIFO order in the thief's deque.
		for i := 1; i <= wantMoved; i++ {
			v, ok := dst.Steal()
			if !ok || *v != i {
				t.Fatalf("n=%d: dst order broken: got %v,%v want %d", n, v, ok, i)
			}
		}
		if victim.Len() != n-1-wantMoved {
			t.Fatalf("n=%d: victim.Len = %d want %d", n, victim.Len(), n-1-wantMoved)
		}
		s := victim.Stats()
		if wantMoved > 0 && (s.BatchSteals != 1 || s.BatchMoved != int64(wantMoved)) {
			t.Fatalf("n=%d: batch stats = %+v want 1 round, %d moved", n, s, wantMoved)
		}
	}
}

func TestStealIntoEmptyVictim(t *testing.T) {
	victim := NewDeque[int](4)
	dst := NewDeque[int](4)
	if v, ok := victim.StealInto(dst); ok {
		t.Fatalf("StealInto on empty deque returned %v", v)
	}
	if dst.Len() != 0 {
		t.Fatalf("dst gained %d elements from an empty victim", dst.Len())
	}
}

// Property: batch stealing conserves elements under a concurrent owner
// and multiple batch thieves — every push extracted exactly once across
// the owner's pops, the thieves' firsts, and the thieves' dst deques.
func TestStealIntoConcurrentConservation(t *testing.T) {
	f := func(script []uint8, nthieves uint8) bool {
		victim := NewDeque[int](2)
		thieves := int(nthieves%3) + 1
		if len(script) < 16 {
			script = append(script, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0)
		}
		var mu sync.Mutex
		got := map[int]int{}
		take := func(v int) {
			mu.Lock()
			got[v]++
			mu.Unlock()
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for th := 0; th < thieves; th++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dst := NewDeque[int](8) // this thief's own deque
				drain := func() {
					for {
						v, ok := dst.PopBottom()
						if !ok {
							return
						}
						take(*v)
					}
				}
				for {
					if v, ok := victim.StealInto(dst); ok {
						take(*v)
						drain()
						continue
					}
					select {
					case <-stop:
						drain()
						return
					default:
					}
				}
			}()
		}
		pushed := 0
		for _, op := range script {
			if op%3 != 2 {
				victim.PushBottom(ptr(pushed))
				pushed++
			} else if v, ok := victim.PopBottom(); ok {
				take(*v)
			}
		}
		for {
			v, ok := victim.PopBottom()
			if !ok {
				break
			}
			take(*v)
		}
		close(stop)
		wg.Wait()
		for {
			v, ok := victim.Steal()
			if !ok {
				break
			}
			take(*v)
		}
		mu.Lock()
		defer mu.Unlock()
		for v := 0; v < pushed; v++ {
			if got[v] != 1 {
				return false
			}
		}
		return len(got) == pushed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOOrder(t *testing.T) {
	var q FIFO[string]
	q.Push("a")
	q.Push("b")
	q.Push("c")
	if q.Len() != 3 {
		t.Fatalf("Len = %d", q.Len())
	}
	for _, want := range []string{"a", "b", "c"} {
		v, ok := q.Pop()
		if !ok || v != want {
			t.Fatalf("Pop = %q,%v want %q", v, ok, want)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty FIFO succeeded")
	}
}

func TestFIFOCompaction(t *testing.T) {
	var q FIFO[int]
	// Push and pop enough to exercise growth and wrap-around.
	for i := 0; i < 1000; i++ {
		q.Push(i)
	}
	for i := 0; i < 900; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = %d,%v want %d", v, ok, i)
		}
	}
	for i := 1000; i < 1100; i++ {
		q.Push(i)
	}
	for i := 900; i < 1100; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = %d,%v want %d", v, ok, i)
		}
	}
}

// A steady-state producer/consumer pair must not allocate once the ring
// has warmed up (the ring only grows when live count exceeds capacity).
func TestFIFOSteadyStateNoGrowth(t *testing.T) {
	var q FIFO[int]
	for i := 0; i < 4; i++ {
		q.Push(i)
	}
	capBefore := len(q.buf)
	for i := 0; i < 10000; i++ {
		q.Push(i)
		q.Pop()
	}
	if len(q.buf) != capBefore {
		t.Fatalf("ring grew from %d to %d under steady state", capBefore, len(q.buf))
	}
}

func TestFIFOConcurrent(t *testing.T) {
	var q FIFO[int]
	const producers, perProducer = 4, 2500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Push(p*perProducer + i)
			}
		}(p)
	}
	wg.Wait()
	seen := make(map[int]bool)
	for {
		v, ok := q.Pop()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
	}
	if len(seen) != producers*perProducer {
		t.Fatalf("got %d elements", len(seen))
	}
}

func TestRoundRobinVictimsNeverSelf(t *testing.T) {
	rr := NewRoundRobinVictims(5)
	for thief := 0; thief < 5; thief++ {
		seen := map[int]bool{}
		for i := 0; i < 20; i++ {
			v := rr.Next(thief)
			if v == thief {
				t.Fatalf("thief %d picked itself", thief)
			}
			if v < 0 || v >= 5 {
				t.Fatalf("victim %d out of range", v)
			}
			seen[v] = true
		}
		if len(seen) != 4 {
			t.Errorf("thief %d did not cycle all victims: %v", thief, seen)
		}
	}
}

func TestRoundRobinSingleWorker(t *testing.T) {
	rr := NewRoundRobinVictims(1)
	if v := rr.Next(0); v != 0 {
		t.Fatalf("single-worker Next = %d", v)
	}
}

func TestRandomVictimsNeverSelfAndCovers(t *testing.T) {
	rv := NewRandomVictims(8, 42)
	for thief := 0; thief < 8; thief++ {
		seen := map[int]bool{}
		for i := 0; i < 400; i++ {
			v := rv.Next(thief)
			if v == thief {
				t.Fatalf("thief %d picked itself", thief)
			}
			seen[v] = true
		}
		if len(seen) < 6 {
			t.Errorf("thief %d only saw victims %v", thief, seen)
		}
	}
}

func TestRandomVictimsDeterministic(t *testing.T) {
	a := NewRandomVictims(4, 7)
	b := NewRandomVictims(4, 7)
	for i := 0; i < 100; i++ {
		if a.Next(i%4) != b.Next(i%4) {
			t.Fatal("same-seed pickers diverged")
		}
	}
}

// TestRandomVictimsUniform: every worker other than the thief is an
// equally likely victim, whichever worker the thief is.
func TestRandomVictimsUniform(t *testing.T) {
	const perVictim = 50000
	for _, n := range []int{3, 4, 8} {
		for _, thief := range []int{0, n - 1} {
			rv := NewRandomVictims(n, 0x5157)
			counts := make([]int, n)
			for i := 0; i < perVictim*(n-1); i++ {
				counts[rv.Next(thief)]++
			}
			for v, c := range counts {
				if v == thief {
					continue
				}
				if c < perVictim*95/100 || c > perVictim*105/100 {
					t.Errorf("n=%d thief=%d: victim %d drawn %d times, want %d ±5%% (counts %v)",
						n, thief, v, c, perVictim, counts)
				}
			}
		}
	}
}

// TestVictimPickersDistinctThieves: Next takes no lock, so calls for
// distinct thieves may run concurrently. Run under -race.
func TestVictimPickersDistinctThieves(t *testing.T) {
	const n = 8
	rv := NewRandomVictims(n, 0x5157)
	rr := NewRoundRobinVictims(n)
	var wg sync.WaitGroup
	for thief := 0; thief < n; thief++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				for _, v := range []int{rv.Next(thief), rr.Next(thief)} {
					if v == thief || v < 0 || v >= n {
						t.Errorf("thief %d drew victim %d", thief, v)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkDequePushPop(b *testing.B) {
	d := NewDeque[int](1024)
	v := new(int)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.PushBottom(v)
		d.PopBottom()
	}
}

func BenchmarkDequeSteal(b *testing.B) {
	d := NewDeque[int](1024)
	v := new(int)
	for i := 0; i < b.N; i++ {
		d.PushBottom(v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Steal()
	}
}

func BenchmarkFIFO(b *testing.B) {
	var q FIFO[int]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(i)
		q.Pop()
	}
}

// ---- Chase–Lev property tests (DESIGN.md §6 invariants) ----

// Property: against a reference slice model, any single-threaded
// interleaving of PushBottom/PopBottom/Steal behaves exactly like a
// deque — owner LIFO, thief FIFO, element-for-element.
func TestDequeMatchesReferenceModel(t *testing.T) {
	f := func(ops []uint8) bool {
		d := NewDeque[int](2)
		var model []int // model[0] is the steal end
		next := 0
		for _, op := range ops {
			switch op % 4 {
			case 0, 1:
				d.PushBottom(ptr(next))
				model = append(model, next)
				next++
			case 2:
				v, ok := d.PopBottom()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					want := model[len(model)-1]
					model = model[:len(model)-1]
					if *v != want {
						return false
					}
				}
			case 3:
				v, ok := d.Steal()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					want := model[0]
					model = model[1:]
					if *v != want {
						return false
					}
				}
			}
		}
		return d.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: under a concurrent owner (pushes and pops driven by a random
// script) and multiple thieves, no element is lost or duplicated, and
// each thief's stolen values arrive in strictly increasing push order
// (the FIFO steal end only moves forward).
func TestDequeConcurrentConservationQuick(t *testing.T) {
	f := func(script []uint8, nthieves uint8) bool {
		d := NewDeque[int](2)
		thieves := int(nthieves%3) + 1
		if len(script) < 8 {
			script = append(script, 1, 1, 2, 1, 1, 1, 2, 1)
		}
		taken := make([][]int, thieves+1) // [0] = owner, rest = thieves
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for th := 1; th <= thieves; th++ {
			th := th
			wg.Add(1)
			go func() {
				defer wg.Done()
				prev := -1
				for {
					if v, ok := d.Steal(); ok {
						if *v <= prev {
							t.Errorf("thief %d stole %d after %d", th, *v, prev)
						}
						prev = *v
						taken[th] = append(taken[th], *v)
						continue
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		pushed := 0
		for _, op := range script {
			if op%3 != 2 {
				d.PushBottom(ptr(pushed))
				pushed++
			} else if v, ok := d.PopBottom(); ok {
				taken[0] = append(taken[0], *v)
			}
		}
		// Drain remaining as the owner, then stop the thieves.
		for {
			v, ok := d.PopBottom()
			if !ok {
				break
			}
			taken[0] = append(taken[0], *v)
		}
		close(stop)
		wg.Wait()
		// Thieves may have raced the final drain; collect their tail too.
		for {
			v, ok := d.Steal()
			if !ok {
				break
			}
			taken[0] = append(taken[0], *v)
		}
		seen := make(map[int]bool, pushed)
		for _, tk := range taken {
			for _, v := range tk {
				if seen[v] || v < 0 || v >= pushed {
					return false
				}
				seen[v] = true
			}
		}
		return len(seen) == pushed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The deque must keep working across many growth generations while
// thieves hold older ring references.
func TestDequeGrowthUnderConcurrentSteals(t *testing.T) {
	d := NewDeque[int](2)
	const n = 50000
	var stolen sync.Map
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for th := 0; th < 3; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if v, ok := d.Steal(); ok {
					if _, dup := stolen.LoadOrStore(*v, true); dup {
						t.Errorf("duplicate %d", *v)
					}
					continue
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		d.PushBottom(ptr(i))
		if i%3 == 0 {
			if v, ok := d.PopBottom(); ok {
				if _, dup := stolen.LoadOrStore(*v, true); dup {
					t.Errorf("duplicate popped %d", *v)
				}
			}
		}
	}
	for {
		v, ok := d.PopBottom()
		if !ok {
			break
		}
		if _, dup := stolen.LoadOrStore(*v, true); dup {
			t.Errorf("duplicate drained %d", *v)
		}
	}
	close(stop)
	wg.Wait()
	for {
		v, ok := d.Steal()
		if !ok {
			break
		}
		if _, dup := stolen.LoadOrStore(*v, true); dup {
			t.Errorf("duplicate late-stolen %d", *v)
		}
	}
	count := 0
	stolen.Range(func(_, _ any) bool { count++; return true })
	if count != n {
		t.Fatalf("conserved %d of %d", count, n)
	}
}
