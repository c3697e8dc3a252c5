package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parc751/internal/collections"
	"parc751/internal/memmodel"
	"parc751/internal/metrics"
	"parc751/internal/ptask"
)

func init() {
	register(Experiment{
		ID:    "P6",
		Title: "Task-aware (task-safe) libraries for Parallel Task",
		Paper: "§IV-C item 6",
		Run:   runP6,
	})
	register(Experiment{
		ID:    "P8",
		Title: "Understanding and coping with the memory model",
		Paper: "§IV-C item 8",
		Run:   runP8,
	})
	register(Experiment{
		ID:    "P9",
		Title: "Parallel use of collections: lock strategies compared",
		Paper: "§IV-C item 9",
		Run:   runP9,
	})
}

func runP6(cfg Config) *Result {
	res := &Result{ID: "P6", Title: "Task-safe libraries"}
	trials := 400
	if cfg.Quick {
		trials = 100
	}

	// Demonstration 1: "thread-safe" is not "task-safe". A map whose Get
	// and Put are each perfectly synchronised still double-computes under
	// the racy check-then-act pattern; the task-safe compound operation
	// (GetOrCompute) does not.
	racy := memmodel.ForcedDoubleCompute(trials)

	rt := ptask.NewRuntime(cfg.Workers)
	defer rt.Shutdown()
	doubles := 0
	for trial := 0; trial < trials; trial++ {
		m := collections.NewRWMutexMap[string, int]()
		var computes atomic.Int32
		multi := ptask.RunMulti(rt, 4, func(i int) (int, error) {
			return m.GetOrCompute("config", func() int {
				computes.Add(1)
				return 42
			}), nil
		})
		vals, _ := multi.Results()
		for _, v := range vals {
			if v != 42 {
				doubles++ // value corruption counts as failure too
			}
		}
		if computes.Load() > 1 {
			doubles++
		}
	}

	// Demonstration 2: a BLOCKING bounded queue deadlocks a task pool
	// (producer tasks block on a full queue while the consumer task sits
	// queued behind them); the task-safe non-blocking queue completes.
	// The blocking variant is run with a watchdog instead of actually
	// deadlocking the test harness.
	deadlockDemo := func(blocking bool) bool {
		// Single worker: the consumer task can never start until the
		// producers finish — which, if they block, is never. An abort
		// flag lets the watchdog release the wedged worker afterwards so
		// the pool can be shut down cleanly.
		rt1 := ptask.NewRuntime(1)
		defer rt1.Shutdown()
		var abort atomic.Bool
		q := collections.NewBoundedQueue[int](2)
		done := make(chan struct{})
		go func() {
			defer close(done)
			producer := ptask.Invoke(rt1, func() error {
				for i := 0; i < 10; i++ {
					if blocking {
						for !q.TryPut(i) {
							// spin: models BlockingQueue.put holding the
							// only pool worker hostage
							if abort.Load() {
								return nil
							}
							time.Sleep(100 * time.Microsecond)
						}
					} else {
						// Task-safe discipline: drain-or-make-progress.
						for !q.TryPut(i) {
							q.TryTake()
						}
					}
				}
				return nil
			})
			producer.Result()
		}()
		select {
		case <-done:
			return true // completed
		case <-time.After(300 * time.Millisecond):
			abort.Store(true) // watchdog: free the worker, report wedged
			<-done
			return false
		}
	}
	blockingCompletes := deadlockDemo(true)
	taskSafeCompletes := deadlockDemo(false)

	tab := metrics.NewTable("Task-safety demonstrations",
		"scenario", "trials", "failures", "verdict")
	tab.AddRow("racy check-then-act (thread-safe ops, forced window)", racy.Trials, racy.Anomalies,
		fmt.Sprintf("%.0f%% double-compute", racy.Rate()*100))
	tab.AddRow("task-safe GetOrCompute under multi-task", trials, doubles, "atomic compound op")
	tab.AddRow("blocking bounded queue on 1-worker pool", 1, boolToInt(!blockingCompletes), "wedges (watchdog fired)")
	tab.AddRow("non-blocking task-safe queue", 1, boolToInt(!taskSafeCompletes), "completes")

	res.Output = header(res, "§IV-C item 6") + tab.String() +
		"\nthe project's lesson: using a thread-safe class inside a tasking model\n" +
		"does not necessarily equate to a correct solution — compound operations\n" +
		"must be atomic and blocking calls must not capture pool workers.\n"
	res.ok("racy pattern shows double computes", racy.Anomalies > 0)
	res.ok("GetOrCompute never double-computes", doubles == 0)
	res.ok("blocking queue wedges the pool", !blockingCompletes)
	res.ok("task-safe queue completes", taskSafeCompletes)
	res.metric("racy_rate", racy.Rate())
	return res
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func runP8(cfg Config) *Result {
	res := &Result{ID: "P8", Title: "Memory-model lab"}
	trials := 200
	if cfg.Quick {
		trials = 50
	}

	lost := memmodel.Explore(
		func() *memmodel.CounterState { return &memmodel.CounterState{} },
		memmodel.LostUpdateOps(0), memmodel.LostUpdateOps(1),
		func(s *memmodel.CounterState) bool { return s.N == 2 })
	lostFixed := memmodel.Explore(
		func() *memmodel.CounterState { return &memmodel.CounterState{} },
		memmodel.AtomicIncrementOps(0), memmodel.AtomicIncrementOps(1),
		func(s *memmodel.CounterState) bool { return s.N == 2 })
	pub := memmodel.Explore(
		func() *memmodel.PublishState { return &memmodel.PublishState{Observed: -1} },
		memmodel.UnsafePublishWriterOps(), memmodel.PublishReaderOps(),
		memmodel.PublishOK)
	pubFixed := memmodel.Explore(
		func() *memmodel.PublishState { return &memmodel.PublishState{Observed: -1} },
		memmodel.SafePublishWriterOps(), memmodel.PublishReaderOps(),
		memmodel.PublishOK)
	cta := memmodel.Explore(
		func() *memmodel.CacheState { return &memmodel.CacheState{} },
		memmodel.CheckThenActOps(0), memmodel.CheckThenActOps(1),
		func(s *memmodel.CacheState) bool { return s.Computes == 1 })
	ctaFixed := memmodel.Explore(
		func() *memmodel.CacheState { return &memmodel.CacheState{} },
		memmodel.AtomicCheckThenActOps(0), memmodel.AtomicCheckThenActOps(1),
		func(s *memmodel.CacheState) bool { return s.Computes == 1 })

	expTab := metrics.NewTable("Exhaustive interleaving exploration (the lab's teaching instrument)",
		"snippet", "interleavings", "violations", "fixed version violations")
	expTab.AddRow("lost update (racy counter)", lost.Interleavings, lost.Violations, lostFixed.Violations)
	expTab.AddRow("unsafe publication (reordered)", pub.Interleavings, pub.Violations, pubFixed.Violations)
	expTab.AddRow("check-then-act (lazy init)", cta.Interleavings, cta.Violations, ctaFixed.Violations)

	forcedLost := memmodel.ForcedLostUpdate(trials/4, 4, 50)
	fixedLost := memmodel.FixedLostUpdate(trials/4, 4, 50)
	forcedDouble := memmodel.ForcedDoubleCompute(trials)
	fixedDouble := memmodel.FixedDoubleCompute(trials)

	liveTab := metrics.NewTable("Live forced-race trials (goroutines with yield windows)",
		"snippet", "trials", "anomaly rate", "fixed rate")
	liveTab.AddRow("lost update", forcedLost.Trials,
		fmt.Sprintf("%.0f%%", forcedLost.Rate()*100), fmt.Sprintf("%.0f%%", fixedLost.Rate()*100))
	liveTab.AddRow("double compute", forcedDouble.Trials,
		fmt.Sprintf("%.0f%%", forcedDouble.Rate()*100), fmt.Sprintf("%.0f%%", fixedDouble.Rate()*100))

	var b strings.Builder
	b.WriteString(header(res, "§IV-C item 8"))
	b.WriteString(expTab.String())
	b.WriteString("\n")
	b.WriteString(liveTab.String())
	res.Output = b.String()

	res.ok("racy snippets have violating interleavings",
		lost.Violations > 0 && pub.Violations > 0 && cta.Violations > 0)
	res.ok("fixed snippets have zero violations",
		lostFixed.Violations == 0 && pubFixed.Violations == 0 && ctaFixed.Violations == 0)
	res.ok("forced live races reproduce anomalies", forcedLost.Anomalies > 0 && forcedDouble.Anomalies > 0)
	res.ok("fixed live versions are anomaly-free", fixedLost.Anomalies == 0 && fixedDouble.Anomalies == 0)
	res.metric("lost_update_violation_fraction", float64(lost.Violations)/float64(lost.Interleavings))
	return res
}

func runP9(cfg Config) *Result {
	res := &Result{ID: "P9", Title: "Parallel collections comparison"}
	opsPerWorker := 30000
	if cfg.Quick {
		opsPerWorker = 5000
	}
	workers := 8

	type mapMaker struct {
		name string
		mk   func() collections.Map[int, int]
	}
	makers := []mapMaker{
		{"mutex (synchronized)", func() collections.Map[int, int] { return collections.NewMutexMap[int, int]() }},
		{"rwmutex", func() collections.Map[int, int] { return collections.NewRWMutexMap[int, int]() }},
	}
	// The shard-degree sweep (A4) sits next to the other implementations.
	for _, shards := range []int{1, 4, 16, 64} {
		makers = append(makers, mapMaker{fmt.Sprintf("sharded x%d", shards),
			func() collections.Map[int, int] { return collections.NewShardedMap[int, int](shards) }})
	}
	makers = append(makers, mapMaker{"sync.Map",
		func() collections.Map[int, int] { return collections.NewSyncMap[int, int]() }})
	mixes := []struct {
		name     string
		readFrac int // out of 10
	}{
		{"90/10 read/write", 9},
		{"50/50 read/write", 5},
	}

	runMix := func(m collections.Map[int, int], readOutOf10 int) float64 {
		for i := 0; i < 1000; i++ {
			m.Put(i, i)
		}
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < opsPerWorker; i++ {
					k := (w*opsPerWorker + i*7) % 1000
					if i%10 < readOutOf10 {
						m.Get(k)
					} else {
						m.Put(k, i)
					}
				}
			}(w)
		}
		wg.Wait()
		total := float64(workers * opsPerWorker)
		return total / time.Since(start).Seconds()
	}

	mapTab := metrics.NewTable(fmt.Sprintf("Map throughput, %d goroutines (ops/s on this host)", workers),
		"implementation", mixes[0].name, mixes[1].name)
	type rowT struct {
		name string
		tput [2]float64
	}
	var rows []rowT
	for _, mk := range makers {
		var r rowT
		r.name = mk.name
		for mi, mix := range mixes {
			r.tput[mi] = runMix(mk.mk(), mix.readFrac)
		}
		rows = append(rows, r)
		mapTab.AddRow(r.name, r.tput[0], r.tput[1])
	}

	// Counters: the increment strategies.
	counterTab := metrics.NewTable("Counter throughput and exactness (8 goroutines x 50k increments)",
		"strategy", "ops/s", "final count exact")
	const incPer = 50000
	runCounter := func(c collections.Counter, striped bool) (float64, bool) {
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sc, _ := c.(*collections.ShardedCounter)
				for i := 0; i < incPer; i++ {
					if striped && sc != nil {
						sc.IncStripe(w)
					} else {
						c.Inc()
					}
				}
			}(w)
		}
		wg.Wait()
		d := time.Since(start).Seconds()
		if cc, ok := c.(*collections.ChannelCounter); ok {
			cc.Close()
		}
		return float64(workers*incPer) / d, c.Value() == int64(workers*incPer)
	}
	exactAll := true
	for _, c := range []struct {
		name    string
		counter collections.Counter
		striped bool
	}{
		{"mutex", &collections.MutexCounter{}, false},
		{"atomic", &collections.AtomicCounter{}, false},
		{"sharded (LongAdder)", collections.NewShardedCounter(workers), true},
		{"channel (CSP)", collections.NewChannelCounter(), false},
	} {
		tput, exact := runCounter(c.counter, c.striped)
		if !exact {
			exactAll = false
		}
		counterTab.AddRow(c.name, tput, exact)
	}

	// Queues and stacks: producer/consumer hand-off through each variant.
	handoffTab := metrics.NewTable(fmt.Sprintf("Queue and stack hand-off, %d producers x %d items -> %d consumers",
		workers/2, opsPerWorker, workers/2), "variant", "items/s", "each item out exactly once")
	handoffExact := true
	for _, v := range []handoffSubject{
		queueSubject("queue: mutex", collections.NewMutexQueue[int]()),
		queueSubject("queue: two-lock (Michael-Scott)", collections.NewTwoLockQueue[int]()),
		queueSubject("queue: lock-free (Michael-Scott CAS)", collections.NewLockFreeQueue[int]()),
		queueSubject("queue: channel", collections.NewChannelQueue[int](64)),
		stackSubject("stack: mutex", collections.NewMutexStack[int]()),
		stackSubject("stack: Treiber (lock-free)", collections.NewTreiberStack[int]()),
	} {
		tput, exact := handoff(v.put, v.take, workers/2, opsPerWorker)
		handoffExact = handoffExact && exact
		handoffTab.AddRow(v.name, tput, exact)
	}

	// The broken baseline, with a forced window so it fails even on one CPU.
	racy := memmodel.ForcedLostUpdate(20, workers, 200)

	var b strings.Builder
	b.WriteString(header(res, "§IV-C item 9"))
	b.WriteString(mapTab.String())
	b.WriteString("\n")
	b.WriteString(counterTab.String())
	b.WriteString("\n")
	b.WriteString(handoffTab.String())
	fmt.Fprintf(&b, "\nunsynchronised counter (forced window): %d/%d trials lost updates\n",
		racy.Anomalies, racy.Trials)
	fmt.Fprintf(&b, "\nhost: %d CPUs, GOMAXPROCS %d\n", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	if runtime.NumCPU() == 1 || runtime.GOMAXPROCS(0) == 1 {
		b.WriteString("note: on one CPU, throughput ratios understate the contention\n" +
			"gaps the students saw on 8-64 core machines; correctness columns\n" +
			"and the lost-update demonstration are host-independent.\n")
	}
	res.Output = b.String()

	res.ok("all synchronised counters exact", exactAll)
	res.ok("every queue and stack variant hands out exactly the items put in, none twice", handoffExact)
	res.ok("unsynchronised counter loses updates", racy.Anomalies > 0)
	allPos := true
	for _, r := range rows {
		if r.tput[0] <= 0 || r.tput[1] <= 0 {
			allPos = false
		}
	}
	res.ok("all map variants measurable", allPos)
	return res
}

// handoffSubject is one P9 queue or stack variant, by its put and take
// operations.
type handoffSubject struct {
	name string
	put  func(int)
	take func() (int, bool)
}

func queueSubject(name string, q collections.Queue[int]) handoffSubject {
	return handoffSubject{name, q.Put, q.TryTake}
}

func stackSubject(name string, s collections.Stack[int]) handoffSubject {
	return handoffSubject{name, s.Push, s.TryPop}
}

// handoff runs n producers putting disjoint item ranges against n
// consumers taking until the producers are done and the structure is
// empty. It returns items per second and whether every item came out
// exactly once: nothing lost, nothing duplicated, nothing invented.
func handoff(put func(int), take func() (int, bool), n, perProducer int) (float64, bool) {
	total := n * perProducer
	seen := make([]atomic.Int32, total)
	var invented atomic.Bool
	var produced sync.WaitGroup
	var producersDone atomic.Bool
	var consumed sync.WaitGroup
	start := time.Now()
	for p := 0; p < n; p++ {
		produced.Add(1)
		go func(p int) {
			defer produced.Done()
			for i := 0; i < perProducer; i++ {
				put(p*perProducer + i)
			}
		}(p)
	}
	for c := 0; c < n; c++ {
		consumed.Add(1)
		go func() {
			defer consumed.Done()
			for {
				v, ok := take()
				switch {
				case !ok && producersDone.Load():
					return
				case !ok:
					runtime.Gosched()
				case v < 0 || v >= total:
					invented.Store(true)
				default:
					seen[v].Add(1)
				}
			}
		}()
	}
	produced.Wait()
	producersDone.Store(true)
	consumed.Wait()
	elapsed := time.Since(start).Seconds()
	exact := !invented.Load()
	for i := range seen {
		exact = exact && seen[i].Load() == 1
	}
	return float64(total) / elapsed, exact
}
