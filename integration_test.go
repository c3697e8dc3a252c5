package parc751

// Integration tests: end-to-end scenarios that cross module boundaries the
// way the student projects did — an interactive app combining the event
// loop, the Parallel Task runtime and a workload; Pyjama regions feeding
// reductions and shared caches; the course machinery running a full
// semester; the simulated machine cross-checked against analytic bounds.

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parc751/internal/android"
	"parc751/internal/collections"
	"parc751/internal/course"
	"parc751/internal/eventloop"
	"parc751/internal/kernels"
	"parc751/internal/machine"
	"parc751/internal/patterns"
	"parc751/internal/probe"
	"parc751/internal/ptask"
	"parc751/internal/pyjama"
	"parc751/internal/reduction"
	"parc751/internal/sortalgo"
	"parc751/internal/textsearch"
	"parc751/internal/thumbs"
	"parc751/internal/workload"
)

// TestInteractiveSearchApplication is the project-4 application end to
// end: a GUI loop, a task runtime, a synthetic corpus, streamed matches,
// progress reporting, and a responsive UI throughout.
func TestInteractiveSearchApplication(t *testing.T) {
	loop := eventloop.New()
	defer loop.Close()
	rt := ptask.NewRuntime(4)
	defer rt.Shutdown()
	rt.SetEventLoop(loop)

	spec := workload.DefaultFolderSpec(2026)
	spec.NumFiles = 150
	folder, planted := workload.GenFolder(spec)

	// The "status bar": mutated only on the dispatch thread.
	var statusUpdates atomic.Int32
	prog := ptask.NewProgress[string](rt)
	prog.Notify(func(string) {
		if !loop.OnDispatchThread() {
			t.Error("status update off the dispatch thread")
		}
		statusUpdates.Add(1)
	})

	var streamed atomic.Int32
	searcher := textsearch.NewSearcher(rt)
	done := make(chan []textsearch.Match, 1)
	go func() {
		matches := searcher.Search(folder, textsearch.Literal(spec.NeedleWord), textsearch.Options{
			OnMatch: func(m textsearch.Match) { streamed.Add(1) },
		})
		prog.Publish(fmt.Sprintf("done: %d matches", len(matches)))
		done <- matches
	}()

	probe := loop.Probe(300*time.Microsecond, 15)
	matches := <-done
	if len(matches) != planted {
		t.Fatalf("found %d of %d planted needles", len(matches), planted)
	}
	deadline := time.Now().Add(5 * time.Second)
	for (streamed.Load() != int32(planted) || statusUpdates.Load() == 0) &&
		time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if streamed.Load() != int32(planted) {
		t.Fatalf("streamed %d of %d", streamed.Load(), planted)
	}
	if statusUpdates.Load() == 0 {
		t.Fatal("progress status never delivered")
	}
	if probe.Max() > time.Second {
		t.Errorf("UI stalled during search: %v", probe.Max())
	}
}

// TestPyjamaKernelWithSharedCache runs a Pyjama team whose members memoise
// expensive results in a task-safe shared map — the project-6 discipline
// inside a project-3 kernel.
func TestPyjamaKernelWithSharedCache(t *testing.T) {
	cache := collections.NewShardedMap[int, float64](8)
	var computes atomic.Int32
	expensive := func(k int) float64 {
		computes.Add(1)
		return float64(k * k)
	}
	var sum atomic.Int64
	pyjama.ParallelFor(4, 10000, pyjama.Dynamic(64), func(i int) {
		k := i % 50 // heavy key reuse
		v := cache.GetOrCompute(k, func() float64 { return expensive(k) })
		sum.Add(int64(v))
	})
	if computes.Load() != 50 {
		t.Fatalf("computed %d values, want exactly 50 (GetOrCompute must dedupe)", computes.Load())
	}
	want := int64(0)
	for i := 0; i < 10000; i++ {
		k := i % 50
		want += int64(k * k)
	}
	if sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

// TestFullCourseSemester drives the course machinery end to end: groups
// form, topics allocate, seminars schedule, commit logs and peer
// evaluations combine into final grades, and the survey is aggregated.
func TestFullCourseSemester(t *testing.T) {
	poll := course.DefaultPoll()
	groups := course.FormGroups(2013, 60, 3, poll)
	alloc := course.Allocate(poll, groups)
	if len(alloc.Unplaced) != 0 {
		t.Fatalf("allocation left groups unplaced: %v", alloc.Unplaced)
	}

	slots := course.SeminarCalendar(3)
	reqs := make([]course.SlotRequest, len(groups))
	for i, g := range groups {
		reqs[i] = course.SlotRequest{GroupID: g.ID, Arrival: g.Arrival,
			Prefs: course.AllSlotsPrefs(len(slots))}
	}
	sched := course.ScheduleSeminars(slots, reqs)
	if len(sched.Unassigned) != 0 {
		t.Fatalf("seminar scheduling failed: %v", sched.Unassigned)
	}

	// One group's assessment: balanced commits, consensual peers.
	log := course.CommitLog{CommitsByMember: map[string]int{"a": 34, "b": 33, "c": 33}}
	if ok, err := log.Balanced(0.05); err != nil || !ok {
		t.Fatalf("balanced log rejected: %v %v", ok, err)
	}
	pe := course.PeerEvaluation{
		Members: []string{"a", "b", "c"},
		Ratings: map[string]map[string]float64{
			"a": {"b": 4, "c": 4}, "b": {"a": 4, "c": 4}, "c": {"a": 4, "b": 4},
		},
	}
	if err := pe.Validate(); err != nil {
		t.Fatal(err)
	}
	marks := pe.AdjustedMarks(82, 0.5)
	scheme := course.AssessmentScheme()
	final := course.FinalGrade(scheme, map[string]float64{
		"Test 1 (week 6)":            75,
		"Group seminar (weeks 7-10)": 80,
		"Test 2 (week 11)":           70,
		"Project implementation":     marks["a"],
		"Project report":             78,
	})
	if final <= 0 || final > 100 {
		t.Fatalf("final grade = %g", final)
	}

	exact := course.ExactSurvey(60, course.PaperTargets())
	if agreement := exact[0].Agreement(); agreement < 0.94 || agreement > 0.96 {
		t.Fatalf("survey agreement = %g", agreement)
	}
}

// TestSimulatorAgainstAnalyticBounds cross-checks the simulated machine
// against closed-form schedules: equal independent tasks on p processors
// must hit the work bound exactly, and the traced schedule must account
// for every virtual nanosecond of busy time.
func TestSimulatorAgainstAnalyticBounds(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		n := 8 * p
		costs := make([]uint64, n)
		for i := range costs {
			costs[i] = 1000
		}
		m := machine.New(machine.Config{Name: "x", Procs: p, SpeedFactor: 1})
		m.EnableTrace()
		for i, c := range costs {
			m.Submit(i%p, c, nil)
		}
		st := m.Run()
		if want := uint64(n) * 1000 / uint64(p); st.Makespan != want {
			t.Fatalf("p=%d makespan = %d, want %d", p, st.Makespan, want)
		}
		var traced uint64
		started := map[uint64]int64{} // task id -> run time
		for _, ev := range m.Trace().Events {
			switch ev.Kind {
			case probe.SiteRun:
				started[ev.Task] = ev.TNs
			case probe.SiteComplete:
				traced += uint64(ev.TNs - started[ev.Task])
			}
		}
		if traced != st.BusyNs {
			t.Fatalf("p=%d traced busy %d != stats %d", p, traced, st.BusyNs)
		}
	}
}

// TestPatternsOverKernels plugs a real kernel into the pattern skeletons:
// the farm renders thumbnails, the switchable mapper scales matmul rows.
func TestPatternsOverKernels(t *testing.T) {
	rt := ptask.NewRuntime(4)
	defer rt.Shutdown()

	imgs := workload.GenImageSet(5, 12, 16, 48)
	farm := patterns.Farm[*workload.Image, *workload.Image]{
		RT:   rt,
		Work: func(im *workload.Image) (*workload.Image, error) { return thumbs.Scale(im, 8, 8), nil },
	}
	outs, err := farm.Process(imgs)
	if err != nil {
		t.Fatal(err)
	}
	want := thumbs.Sequential(imgs, 8, 8)
	for i := range want {
		for p := range want[i].Pix {
			if outs[i].Pix[p] != want[i].Pix[p] {
				t.Fatalf("farm thumbnail %d differs", i)
			}
		}
	}

	a := kernels.RandomMatrix(1, 64, 64)
	b := kernels.RandomMatrix(2, 64, 64)
	seq := kernels.MatMulSequential(a, b)
	c := kernels.NewMatrix(64, 64)
	mapper := patterns.Switchable{
		Seq:       patterns.SeqMapper{},
		Par:       patterns.ChunkedMapper{RT: rt, Chunk: 8},
		Threshold: 16,
	}
	mapper.Map(64, func(i int) {
		crow := c.Row(i)
		for k := 0; k < 64; k++ {
			aik := a.At(i, k)
			brow := b.Row(k)
			for j := range crow {
				crow[j] += aik * brow[j]
			}
		}
	})
	if kernels.MaxAbsDiff(seq, c) != 0 {
		t.Fatal("switchable-mapped matmul differs from sequential")
	}
}

// TestAndroidThumbnailApp is the P1 second group's application shape:
// AsyncTask rendering with progress on the main looper.
func TestAndroidThumbnailApp(t *testing.T) {
	main := android.NewLooper()
	defer main.Quit()
	imgs := workload.GenImageSet(9, 10, 16, 32)
	var progress atomic.Int32
	task := android.NewAsyncTask[[]*workload.Image, int, []*workload.Image](main)
	task.OnProgressUpdate = func(int) {
		if !main.IsCurrent() {
			t.Error("progress off the main looper")
		}
		progress.Add(1)
	}
	task.DoInBackground = func(tk *android.AsyncTask[[]*workload.Image, int, []*workload.Image], in []*workload.Image) []*workload.Image {
		out := make([]*workload.Image, len(in))
		for i, im := range in {
			out[i] = thumbs.Scale(im, 8, 8)
			tk.PublishProgress(i)
		}
		return out
	}
	task.Execute(imgs)
	out, err := task.Get()
	if err != nil || len(out) != len(imgs) {
		t.Fatalf("asynctask result: %d, %v", len(out), err)
	}
	android.NewHandler(main).PostAndWait(func() {})
	if progress.Load() != int32(len(imgs)) {
		t.Fatalf("progress updates = %d", progress.Load())
	}
}

// TestParctraceCLIRoundTrip exercises the schedule-replay debugger the
// way a user does — through the real binary: build cmd/parctrace, record
// a seeded chaos run to a trace file, inspect it with dump, render the
// HTML viewer, and replay it expecting a bit-identical verdict.
func TestParctraceCLIRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a real binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "parctrace")
	build := exec.Command("go", "build", "-o", bin, "./cmd/parctrace")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building parctrace: %v\n%s", err, out)
	}
	run := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(bin, args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("parctrace %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return string(out)
	}

	trace := filepath.Join(dir, "trace.json")
	recOut := run("record", "-workload", "thumbs", "-n", "10", "-seed", "424", "-chaos", "-o", trace)
	if !strings.Contains(recOut, "recorded") {
		t.Fatalf("record output: %s", recOut)
	}
	if st, err := os.Stat(trace); err != nil || st.Size() == 0 {
		t.Fatalf("trace file not written: %v", err)
	}

	dumpOut := run("dump", trace)
	for _, want := range []string{"schema parc751/trace/v1", "workload thumbs", "faults", "#"} {
		if !strings.Contains(dumpOut, want) {
			t.Fatalf("dump output missing %q:\n%s", want, dumpOut)
		}
	}

	html := filepath.Join(dir, "trace.html")
	run("render", trace, "-o", html)
	page, err := os.ReadFile(html)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<!doctype html>", "<svg", "trace-data", "</html>"} {
		if !strings.Contains(string(page), want) {
			t.Fatalf("rendered page missing %q", want)
		}
	}

	replayOut := run("-replay", trace)
	if !strings.Contains(replayOut, "reproduced the recorded schedule") {
		t.Fatalf("replay output: %s", replayOut)
	}

	// A divergence must be detected: corrupt a deterministic count and
	// expect replay to fail with a canonical diff.
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(raw), `"complete": 10`, `"complete": 11`, 1)
	if bad == string(raw) {
		t.Fatal("corruption target not found in trace (complete count moved?)")
	}
	badFile := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badFile, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-replay", badFile)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("corrupted trace replayed cleanly:\n%s", out)
	}
	if !strings.Contains(string(out), "canonical traces differ") {
		t.Fatalf("divergence not diagnosed:\n%s", out)
	}
}

// TestSortUnderReductionVerification sorts with every implementation and
// verifies via a parallel reduction that order and multiset both hold —
// two models validating each other.
func TestSortUnderReductionVerification(t *testing.T) {
	rt := ptask.NewRuntime(4)
	defer rt.Shutdown()
	base := workload.IntArray(77, 30000, 1000)
	var wantSum int64
	for _, v := range base {
		wantSum += int64(v)
	}
	for name, sorter := range map[string]func([]int){
		"ptask":  func(xs []int) { sortalgo.PTask(rt, xs, 512) },
		"pyjama": func(xs []int) { sortalgo.Pyjama(3, xs, 512) },
	} {
		xs := append([]int(nil), base...)
		sorter(xs)
		sum := reduction.Parallel(4, len(xs), reduction.Sum[int64](),
			func(i int) int64 { return int64(xs[i]) })
		if sum != wantSum {
			t.Fatalf("%s: element sum changed: %d != %d", name, sum, wantSum)
		}
		sortedPar := reduction.Parallel(4, len(xs)-1, reduction.And(),
			func(i int) bool { return xs[i] <= xs[i+1] })
		if !sortedPar {
			t.Fatalf("%s: output not sorted", name)
		}
	}
}
