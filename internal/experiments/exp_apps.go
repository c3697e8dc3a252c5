package experiments

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parc751/internal/android"
	"parc751/internal/eventloop"
	"parc751/internal/machine"
	"parc751/internal/metrics"
	"parc751/internal/pdfsearch"
	"parc751/internal/ptask"
	"parc751/internal/textsearch"
	"parc751/internal/thumbs"
	"parc751/internal/webfetch"
	"parc751/internal/workload"
)

func runP1(cfg Config, res *Result) {
	nImgs, maxDim := 96, 192
	if cfg.Quick {
		nImgs, maxDim = 24, 64
	}
	imgs := workload.GenImageSet(cfg.Seed, nImgs, maxDim/2, maxDim)
	rt := ptask.NewRuntime(cfg.Workers)
	defer rt.Shutdown()
	loop := eventloop.New()
	defer loop.Close()
	rt.SetEventLoop(loop)

	want := thumbs.Sequential(imgs, 48, 48)
	same := func(got []*workload.Image) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			for p := range want[i].Pix {
				if got[i].Pix[p] != want[i].Pix[p] {
					return false
				}
			}
		}
		return true
	}

	tab := metrics.NewTable(fmt.Sprintf("Strategies over %d images (wall-clock; UI probe while rendering)", nImgs),
		"strategy", "time", "identical output", "UI max latency")

	// Anti-pattern: render ON the event thread; probes stall behind it.
	// The render waits on a gate that opens only once the first probe
	// event is queued behind it, so that event's service latency covers
	// the whole timed render: the stall holds by construction, whatever
	// the load on the host.
	var onEDT time.Duration
	rendering, gate := make(chan struct{}), make(chan struct{})
	loop.InvokeLater(func() {
		close(rendering)
		<-gate
		onEDT = timeIt(func() { thumbs.Sequential(imgs, 48, 48) })
	})
	<-rendering
	probed := make(chan *eventloop.ProbeResult)
	go func() { probed <- loop.Probe(200*time.Microsecond, 10) }()
	for loop.QueueLen() < 1 {
		time.Sleep(10 * time.Microsecond)
	}
	close(gate)
	prBlocked := <-probed
	tab.AddRow("sequential ON event thread", onEDT.String(), true, prBlocked.Max().String())

	probeDuring := func(run func() []*workload.Image) (time.Duration, bool, time.Duration) {
		var out []*workload.Image
		var d time.Duration
		done := make(chan struct{})
		go func() {
			d = timeIt(func() { out = run() })
			close(done)
		}()
		pr := loop.Probe(200*time.Microsecond, 10)
		<-done
		return d, same(out), pr.Max()
	}

	dPT, okPT, latPT := probeDuring(func() []*workload.Image {
		return thumbs.PTask(rt, imgs, 48, 48, nil)
	})
	tab.AddRow("parallel-task (TASK(*))", dPT.String(), okPT, latPT.String())

	dWP, okWP, latWP := probeDuring(func() []*workload.Image {
		return thumbs.WorkerPool(cfg.Workers, imgs, 48, 48)
	})
	tab.AddRow("worker pool (threads)", dWP.String(), okWP, latWP.String())

	dBG, okBG, latBG := probeDuring(func() []*workload.Image {
		return <-thumbs.BackgroundWorker(imgs, 48, 48, nil)
	})
	tab.AddRow("background worker (SwingWorker)", dBG.String(), okBG, latBG.String())

	// Interim delivery check.
	var interim atomic.Int32
	thumbs.PTask(rt, imgs, 24, 24, func(t thumbs.Thumb) { interim.Add(1) })
	waitFor := time.Now().Add(5 * time.Second)
	for interim.Load() < int32(nImgs) && time.Now().Before(waitFor) {
		time.Sleep(time.Millisecond)
	}

	// The second group's study (§IV-C item 1): the same rendering through
	// Android's AsyncTask and handlers/loopers, including the
	// SERIAL_EXECUTOR pitfall that silently serialises AsyncTasks.
	androidTab, androidOK := androidThumbComparison(imgs, same)

	// Simulated speedup: per-image cost proportional to pixels, run on
	// the Android preset (the paper's second group ported this project
	// to Android) and PARC machines.
	costs := make([]uint64, nImgs)
	for i, im := range imgs {
		costs[i] = uint64(im.W * im.H)
	}
	simTab := metrics.NewTable("Simulated rendering speedup (per-image tasks, work stealing)",
		"machine", "cores", "speedup")
	var speeds []float64
	for _, mc := range []machine.Config{machine.AndroidQuad(), machine.PARC8(), machine.PARC16(), machine.PARC64()} {
		seq := machine.RunTasks(mc.WithProcs(1), costs, false).Makespan
		par := machine.RunTasks(mc, costs, false).Makespan
		s := metrics.Speedup(float64(seq), float64(par))
		speeds = append(speeds, s)
		simTab.AddRow(mc.Name, mc.Procs, s)
	}

	var b strings.Builder
	b.WriteString(tab.String())
	b.WriteString("\n")
	b.WriteString(androidTab.String())
	b.WriteString("\n")
	b.WriteString(simTab.String())
	res.Output = b.String()

	res.ok("all strategies render identically", okPT && okWP && okBG)
	res.ok("android strategies render identically with main-looper delivery", androidOK)
	res.ok("on-event-thread rendering stalls the UI", prBlocked.Max() >= onEDT)
	res.ok("off-thread strategies keep UI responsive", latPT < time.Second && latWP < time.Second && latBG < time.Second)
	res.ok("interim thumbnails delivered", interim.Load() == int32(nImgs))
	res.ok("simulated speedup grows with cores", nonDecreasing(speeds))
	res.metric("android_speedup", speeds[0])
	res.metric("parc64_speedup", speeds[3])
}

// androidThumbComparison renders the same thumbnail workload through the
// Android primitives (one AsyncTask per image; AsyncTasks forced through
// SERIAL_EXECUTOR; plain goroutines posting results via a Handler) and
// checks outputs match and completion callbacks land on the main looper.
func androidThumbComparison(imgs []*workload.Image, same func([]*workload.Image) bool) (*metrics.Table, bool) {
	main := android.NewLooper()
	defer main.Quit()
	h := android.NewHandler(main)
	tab := metrics.NewTable("Android strategies (the second group's study)",
		"strategy", "time", "identical output", "peak concurrency", "callbacks on main looper")
	allOK := true

	type renderOut struct {
		out    []*workload.Image
		peak   int32
		onMain bool
		d      time.Duration
	}

	// Strategy 1: one AsyncTask per image (THREAD_POOL behaviour).
	runParallelTasks := func() renderOut {
		out := make([]*workload.Image, len(imgs))
		var concurrent, peak atomic.Int32
		onMain := true
		var onMainMu sync.Mutex
		start := time.Now()
		tasks := make([]*android.AsyncTask[int, int, *workload.Image], len(imgs))
		for i := range imgs {
			i := i
			task := android.NewAsyncTask[int, int, *workload.Image](main)
			task.DoInBackground = func(_ *android.AsyncTask[int, int, *workload.Image], idx int) *workload.Image {
				c := concurrent.Add(1)
				for {
					p := peak.Load()
					if c <= p || peak.CompareAndSwap(p, c) {
						break
					}
				}
				th := thumbs.Scale(imgs[idx], 48, 48)
				concurrent.Add(-1)
				return th
			}
			task.OnPostExecute = func(th *workload.Image) {
				onMainMu.Lock()
				if !main.IsCurrent() {
					onMain = false
				}
				out[i] = th
				onMainMu.Unlock()
			}
			tasks[i] = task.Execute(i)
		}
		for _, task := range tasks {
			task.Get()
		}
		h.PostAndWait(func() {}) // drain trailing OnPostExecute callbacks
		return renderOut{out, peak.Load(), onMain, time.Since(start)}
	}

	// Strategy 2: the SERIAL_EXECUTOR pitfall — same tasks, one at a time.
	runSerial := func() renderOut {
		exec := android.NewSerialExecutor()
		out := make([]*workload.Image, len(imgs))
		var concurrent, peak atomic.Int32
		start := time.Now()
		for i := range imgs {
			i := i
			exec.Submit(func() {
				c := concurrent.Add(1)
				for {
					p := peak.Load()
					if c <= p || peak.CompareAndSwap(p, c) {
						break
					}
				}
				th := thumbs.Scale(imgs[i], 48, 48)
				h.Post(func() { out[i] = th })
				concurrent.Add(-1)
			})
		}
		exec.Wait()
		h.PostAndWait(func() {})
		return renderOut{out, peak.Load(), true, time.Since(start)}
	}

	// Strategy 3: worker goroutines + Handler (handlers/loopers style).
	runHandlerWorkers := func() renderOut {
		out := make([]*workload.Image, len(imgs))
		start := time.Now()
		var wg sync.WaitGroup
		idx := make(chan int)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					th := thumbs.Scale(imgs[i], 48, 48)
					i := i
					h.Post(func() { out[i] = th })
				}
			}()
		}
		for i := range imgs {
			idx <- i
		}
		close(idx)
		wg.Wait()
		h.PostAndWait(func() {})
		return renderOut{out, -1, true, time.Since(start)}
	}

	for _, s := range []struct {
		name string
		run  func() renderOut
	}{
		{"asynctask (thread pool)", runParallelTasks},
		{"asynctask (SERIAL_EXECUTOR)", runSerial},
		{"handler + worker threads", runHandlerWorkers},
	} {
		r := s.run()
		identical := same(r.out)
		if !identical || !r.onMain {
			allOK = false
		}
		peakStr := fmt.Sprintf("%d", r.peak)
		if r.peak < 0 {
			peakStr = "-"
		}
		tab.AddRow(s.name, r.d.String(), identical, peakStr, r.onMain)
	}
	// The serial-executor pitfall must actually serialise.
	serial := runSerial()
	if serial.peak != 1 {
		allOK = false
	}
	return tab, allOK
}

func runP4(cfg Config, res *Result) {
	spec := workload.DefaultFolderSpec(cfg.Seed)
	spec.NumFiles = 800
	if cfg.Quick {
		spec.NumFiles = 120
	}
	folder, planted := workload.GenFolder(spec)
	rt := ptask.NewRuntime(cfg.Workers)
	defer rt.Shutdown()
	loop := eventloop.New()
	defer loop.Close()
	rt.SetEventLoop(loop)
	searcher := textsearch.NewSearcher(rt)

	var seq, par []textsearch.Match
	dSeq := timeIt(func() { seq = textsearch.Sequential(folder, textsearch.Literal(spec.NeedleWord)) })
	var streamed atomic.Int32
	var uiMax time.Duration
	dPar := timeIt(func() {
		done := make(chan struct{})
		go func() {
			par = searcher.Search(folder, textsearch.Literal(spec.NeedleWord), textsearch.Options{
				OnMatch: func(m textsearch.Match) { streamed.Add(1) },
			})
			close(done)
		}()
		pr := loop.Probe(200*time.Microsecond, 10)
		<-done
		uiMax = pr.Max()
	})
	waitFor := time.Now().Add(5 * time.Second)
	for streamed.Load() < int32(planted) && time.Now().Before(waitFor) {
		time.Sleep(time.Millisecond)
	}

	re, _ := textsearch.CompileRegexp("concurrency[A-Z]+")
	reMatches := searcher.Search(folder, re, textsearch.Options{})

	identical := len(seq) == len(par)
	if identical {
		for i := range seq {
			if seq[i] != par[i] {
				identical = false
				break
			}
		}
	}

	tab := metrics.NewTable(fmt.Sprintf("Search %q over %d files / %d lines",
		spec.NeedleWord, spec.NumFiles, folder.TotalLines()),
		"mode", "matches", "time", "notes")
	tab.AddRow("sequential", len(seq), dSeq.String(), "-")
	tab.AddRow("parallel-task (per file)", len(par), dPar.String(),
		fmt.Sprintf("streamed=%d uiMax=%v", streamed.Load(), uiMax))
	tab.AddRow("regexp parallel", len(reMatches), "-", "pattern concurrency[A-Z]+")

	res.Output = tab.String()
	res.ok("finds every planted needle", len(seq) == planted && len(par) == planted)
	res.ok("parallel result order deterministic", identical)
	res.ok("all matches streamed while searching", streamed.Load() == int32(planted))
	res.ok("regexp matches planted needles", len(reMatches) == planted)
	res.ok("UI responsive during search", uiMax < time.Second)
	res.metric("matches", float64(len(par)))
}

func runP7(cfg Config, res *Result) {
	spec := workload.DefaultDocSpec(cfg.Seed)
	spec.NumDocs = 80
	if cfg.Quick {
		spec.NumDocs = 20
	}
	// Add one giant document so per-file granularity has a straggler.
	docs, _ := workload.GenDocs(spec)
	giant, _ := workload.GenDocs(workload.DocSpec{Seed: cfg.Seed + 1, NumDocs: 1,
		MinPages: 1500, MaxPages: 1500, WordsPage: spec.WordsPage,
		NeedleRate: spec.NeedleRate, Needle: spec.Needle})
	docs = append(docs, giant...)

	rt := ptask.NewRuntime(cfg.Workers)
	defer rt.Shutdown()
	want := pdfsearch.Sequential(docs, spec.Needle)

	tab := metrics.NewTable("Granularity study (skewed corpus: one 1500-page document)",
		"granularity", "tasks", "hits", "correct", "sim makespan p8 (Mcycles)")
	correct := true
	simMakespans := map[string]float64{}
	for _, g := range []pdfsearch.Granularity{pdfsearch.PerFile, pdfsearch.PerPage, pdfsearch.Hybrid} {
		got := pdfsearch.Search(rt, docs, spec.Needle, pdfsearch.Options{Granularity: g, PagesPerTask: 16})
		ok := len(got) == len(want)
		if !ok {
			correct = false
		}
		units := pdfsearch.UnitCount(docs, g, 16)
		// Simulated makespan on an 8-core machine: per-task cost = pages
		// in the unit x per-page scan cost, plus the machine's per-task
		// spawn overhead (which punishes per-page granularity).
		costs := unitCosts(docs, g, 16, 2000)
		st := machine.RunTasks(machine.Config{Name: "p8", Procs: 8, SpeedFactor: 1,
			SpawnOverhead: 3000, StealLatency: 1500}, costs, false)
		simMakespans[g.String()] = float64(st.Makespan)
		tab.AddRow(g.String(), units, len(got), ok, float64(st.Makespan)/1e6)
	}

	res.Output = tab.String() +
		"\nshape: per-file suffers the giant-document straggler; per-page pays task\n" +
		"overhead; hybrid (16 pages/task) balances both — the crossover the project\n" +
		"asked students to investigate.\n"
	res.ok("all granularities correct", correct)
	res.ok("hybrid beats per-file on skewed corpus", simMakespans["hybrid"] < simMakespans["per-file"])
	res.ok("hybrid beats per-page under task overhead", simMakespans["hybrid"] < simMakespans["per-page"])
	res.metric("perfile_over_hybrid", simMakespans["per-file"]/simMakespans["hybrid"])
}

// unitCosts models one task per search unit with cost = pages x perPage ns.
func unitCosts(docs []*workload.Document, g pdfsearch.Granularity, run int, perPage uint64) []uint64 {
	var costs []uint64
	switch g {
	case pdfsearch.PerFile:
		for _, d := range docs {
			costs = append(costs, uint64(len(d.Pages))*perPage)
		}
	case pdfsearch.PerPage:
		for _, d := range docs {
			for range d.Pages {
				costs = append(costs, perPage)
			}
		}
	case pdfsearch.Hybrid:
		for _, d := range docs {
			for lo := 0; lo < len(d.Pages); lo += run {
				hi := lo + run
				if hi > len(d.Pages) {
					hi = len(d.Pages)
				}
				costs = append(costs, uint64(hi-lo)*perPage)
			}
		}
	}
	return costs
}

func runP10(cfg Config, res *Result) {
	nPages := 400
	if cfg.Quick {
		nPages = 100
	}
	pages := workload.GenPages(cfg.Seed, nPages, 2000, 80000)
	net := webfetch.DefaultSimConfig()
	conns := []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	results := webfetch.Sweep(pages, conns, net)

	curve := &metrics.Series{Name: "makespan (s)"}
	tab := metrics.NewTable("Connection sweep over the simulated network (80 ms RTT, 2 MB/s)",
		"connections", "makespan (s)", "throughput (KB/s)")
	for i, k := range conns {
		tab.AddRow(k, results[i].Makespan, results[i].Throughput/1000)
		curve.Add(float64(k), results[i].Makespan)
	}
	chart := &metrics.Chart{Title: "The project's question: how many connections?",
		XLabel: "connections", YLabel: "makespan"}
	chart.AddSeries(curve)

	best := webfetch.BestConnections(pages, conns, net)
	lb := webfetch.LowerBound(pages, net)

	var b strings.Builder
	b.WriteString(tab.String())
	b.WriteString("\n")
	b.WriteString(chart.String())
	fmt.Fprintf(&b, "\nbest connection count = %d; bandwidth lower bound = %.2fs\n", best, lb)
	res.Output = b.String()

	res.ok("2 conns beat 1", results[1].Makespan < results[0].Makespan)
	res.ok("knee exists (diminishing tail gains)",
		results[0].Makespan-results[2].Makespan > 10*(results[len(results)-2].Makespan-results[len(results)-1].Makespan))
	res.ok("never beats bandwidth bound", results[len(results)-1].Makespan >= lb-1e-9)
	res.ok("optimum in the interior", best > 1)
	res.metric("best_connections", float64(best))
	res.metric("speedup_at_best", results[0].Makespan/simMin(results))
}

func simMin(rs []webfetch.SimResult) float64 {
	m := rs[0].Makespan
	for _, r := range rs {
		if r.Makespan < m {
			m = r.Makespan
		}
	}
	return m
}
