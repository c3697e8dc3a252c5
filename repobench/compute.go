package main

import (
	"bytes"
	"fmt"
	"math/cmplx"
	"slices"
	"time"

	"parc751/internal/kernels"
	"parc751/internal/metrics"
	"parc751/internal/ptask"
	"parc751/internal/pyjama"
	"parc751/internal/sortalgo"
	"parc751/internal/thumbs"
	"parc751/internal/workload"
	"parc751/internal/xrand"
)

// The compute workload's input sizes: one job runs each of the course's
// parallel programs once on these.
const (
	matDim       = 128
	fftLen       = 1 << 14
	prVertices   = 20_000
	prDegree     = 8
	prIters      = 10
	prDamping    = 0.85
	sortLen      = 200_000
	sortCutoff   = 2048
	thumbImages  = 16
	thumbSide    = 32
	computeTol   = 1e-9
	computeSetup = 21 // set-ups per run; setup_s is their median
	computeWarm  = 5  // untimed warm-up jobs
)

// computeKernels names the five timed calls of one job, in job order.
var computeKernels = []string{"kernels.matmul", "kernels.fft", "kernels.pagerank", "sortalgo.ptask", "thumbs.ptask"}

// computeInputs are generated from the seed before anything is timed.
type computeInputs struct {
	a, b  *kernels.Matrix
	fft   []complex128
	graph *workload.Graph
	ints  []int
	imgs  []*workload.Image
}

// computeRef holds the sequential reference results every job must match.
type computeRef struct {
	mat    *kernels.Matrix
	fft    []complex128
	rank   []float64
	sorted []int
	thumbs []*workload.Image
}

func genComputeInputs(seed uint64) *computeInputs {
	r := xrand.New(seed)
	in := &computeInputs{
		a:     kernels.RandomMatrix(r.Uint64(), matDim, matDim),
		b:     kernels.RandomMatrix(r.Uint64(), matDim, matDim),
		fft:   make([]complex128, fftLen),
		graph: workload.GenGraph(r.Uint64(), prVertices, prDegree),
		ints:  workload.IntArray(r.Uint64(), sortLen, 4*sortLen),
		imgs:  workload.GenImageSet(r.Uint64(), thumbImages, 64, 256),
	}
	for i := range in.fft {
		in.fft[i] = complex(r.Float64()-0.5, r.Float64()-0.5)
	}
	return in
}

// reference runs the sequential versions once, before anything is timed.
func (in *computeInputs) reference() *computeRef {
	ref := &computeRef{
		mat:    kernels.MatMulSequential(in.a, in.b),
		fft:    slices.Clone(in.fft),
		rank:   kernels.PageRankSequential(in.graph, prDamping, prIters),
		sorted: slices.Clone(in.ints),
		thumbs: thumbs.Sequential(in.imgs, thumbSide, thumbSide),
	}
	kernels.FFTSequential(ref.fft)
	sortalgo.Sequential(ref.sorted)
	return ref
}

// computeJob is one caller's job state: the runtime and scratch buffers
// for the in-place kernels.
type computeJob struct {
	procs int
	rt    *ptask.Runtime
	in    *computeInputs
	ref   *computeRef
	fft   []complex128
	ints  []int
}

func newComputeJob(procs int, in *computeInputs, ref *computeRef) *computeJob {
	return &computeJob{
		procs: procs,
		rt:    ptask.NewRuntime(procs),
		in:    in,
		ref:   ref,
		fft:   make([]complex128, fftLen),
		ints:  make([]int, sortLen),
	}
}

// computeTrace collects per-call wall times and the matmul region's
// barrier counters during a traced phase.
type computeTrace struct {
	calls        [5][]float64 // ms, indexed like computeKernels
	barrierWaits int64
	barrierParks int64
}

// run executes one job and checks every output against the reference.
// With tr set, each call is timed and matmul runs through its
// stats-returning twin.
func (j *computeJob) run(tr *computeTrace) error {
	in := j.in
	var last time.Time
	lap := func(i int) {
		if tr != nil {
			now := time.Now()
			tr.calls[i] = append(tr.calls[i], durMs(now.Sub(last)))
			last = now
		}
	}
	last = time.Now()
	var mat *kernels.Matrix
	if tr != nil {
		var stats pyjama.RegionStats
		mat, stats = kernels.MatMulParallelStats(j.procs, in.a, in.b)
		tr.barrierParks += stats.TotalBarrierParks()
		for _, t := range stats.Threads {
			tr.barrierWaits += t.Barrier.Waits
		}
	} else {
		mat = kernels.MatMulParallel(j.procs, in.a, in.b)
	}
	lap(0)
	copy(j.fft, in.fft)
	kernels.FFTParallel(j.procs, j.fft)
	lap(1)
	rank := kernels.PageRankParallel(j.procs, in.graph, prDamping, prIters)
	lap(2)
	copy(j.ints, in.ints)
	sortalgo.PTask(j.rt, j.ints, sortCutoff)
	lap(3)
	th := thumbs.PTask(j.rt, in.imgs, thumbSide, thumbSide, nil)
	lap(4)

	ref := j.ref
	if d := kernels.MaxAbsDiff(mat, ref.mat); d > computeTol {
		return fmt.Errorf("matmul differs from sequential by %g", d)
	}
	for i := range j.fft {
		if d := cmplx.Abs(j.fft[i] - ref.fft[i]); d > computeTol {
			return fmt.Errorf("fft[%d] differs from sequential by %g", i, d)
		}
	}
	if d := kernels.L1Distance(rank, ref.rank); d > computeTol {
		return fmt.Errorf("pagerank L1 distance %g from sequential", d)
	}
	if !slices.Equal(j.ints, ref.sorted) {
		return fmt.Errorf("sort output is not the sorted input")
	}
	for i := range th {
		if !bytes.Equal(th[i].Pix, ref.thumbs[i].Pix) {
			return fmt.Errorf("thumbnail %d differs from sequential", i)
		}
	}
	return nil
}

// runCompute is the compute workload: one in-process caller running the
// course's parallel programs back to back.
func runCompute(cfg config) (*report, error) {
	rep := newReport()
	in := genComputeInputs(cfg.seed)
	ref := in.reference()

	// Set-up: a fresh runtime through its first checked job, several
	// times; the last instance is kept for the timed phase.
	var job *computeJob
	setups := make([]setupSample, computeSetup)
	for i := range setups {
		if job != nil {
			job.rt.Shutdown()
		}
		sw := startStopwatch()
		job = newComputeJob(cfg.procs, in, ref)
		err := job.run(nil)
		setups[i] = sw.sample()
		rep.Attempted++
		if err != nil {
			rep.fail("setup job: %v", err)
		}
	}
	defer job.rt.Shutdown()
	for i := 0; i < computeWarm; i++ {
		rep.Attempted++
		if err := job.run(nil); err != nil {
			rep.fail("warm-up job: %v", err)
		}
	}

	loop := func(d time.Duration, tr *computeTrace) phase {
		var p phase
		p.from = sampleUsage()
		end := p.from.wall.Add(d)
		for {
			start := time.Now()
			if !start.Before(end) {
				break
			}
			err := job.run(tr)
			rep.Attempted++
			if err != nil {
				rep.fail("job: %v", err)
				continue
			}
			p.jobs++
			p.lat = append(p.lat, durMs(time.Since(start)))
		}
		p.to = sampleUsage()
		p.elapsed = p.to.wall.Sub(p.from.wall)
		return p
	}

	if !cfg.trace {
		rep.endToEnd(loop(cfg.duration(), nil), setups)
		return rep, nil
	}

	// Traced run: an untraced half for the overhead baseline, then the
	// traced half.
	plain := loop(cfg.duration()/2, nil)
	rep.endToEnd(plain, setups)
	tr := &computeTrace{}
	sched0 := job.rt.SchedStats()
	sampler := startStealSampler(time.Second)
	traced := loop(cfg.duration()/2, tr)
	rep.Diag["steal_windows"] = sampler.Stop()
	schedLayer(rep, sched0, job.rt.SchedStats(), traced.jobs)
	overheadLayer(rep, plain, traced)

	seq := [5]func(){
		func() { kernels.MatMulSequential(in.a, in.b) },
		func() { copy(job.fft, in.fft); kernels.FFTSequential(job.fft) },
		func() { kernels.PageRankSequential(in.graph, prDamping, prIters) },
		func() { copy(job.ints, in.ints); sortalgo.Sequential(job.ints) },
		func() { thumbs.Sequential(in.imgs, thumbSide, thumbSide) },
	}
	for i, name := range computeKernels {
		par := median(tr.calls[i])
		seqMs := durMs(medianDur(5, seq[i]))
		rep.layer(name+"_ms", "ms", par)
		rep.layer(name+".speedup", "x", metrics.Speedup(seqMs, par))
		rep.layer(name+".efficiency", "ratio", metrics.Efficiency(seqMs, par, cfg.procs))
	}
	rep.layer("pyjama.barrier_park_ratio", "ratio", ratio(float64(tr.barrierParks), float64(tr.barrierWaits)))
	runtimeProbes(rep, cfg.procs, job.rt)
	err := rep.borrow(cfg, "fleet_small", "client.", "parcserve.", "net.", "workload.", "parccluster.", "trace.accounting_gap_pct")
	return rep, err
}
