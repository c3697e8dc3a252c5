package pyjama

// The real schedule(auto): instead of silently mapping to static, the
// runtime measures per-chunk cost over a calibration prefix of the
// iteration space and then commits the whole team to either static blocks
// (uniform work, least claiming overhead) or dynamic claiming with a
// computed chunk size (skewed work, least imbalance).
//
// Mechanics: the prefix [0, calibEnd) is claimed in fixed probe chunks
// with a CAS bounded at calibEnd (so the shared cursor lands exactly on
// the boundary), and every probe chunk is timed. The first thread to run
// out of probe work folds the samples into a decision and publishes it
// with a CAS; the rest of the team adopts it, so the remainder
// [calibEnd, n) is scheduled consistently even though no mid-loop barrier
// is taken.

import (
	"math"
	"sync/atomic"
	"time"

	"parc751/internal/core"
)

const (
	// autoProbesPerThread scales the calibration prefix: the team claims
	// about this many probe chunks per member before deciding.
	autoProbesPerThread = 2
	// autoMaxProbeChunk caps probe chunk size so calibration cannot
	// swallow a large share of a modest loop.
	autoMaxProbeChunk = 256
	// autoSpreadStatic is the max/min per-iteration cost ratio (across
	// probe chunks) below which the work counts as uniform and static
	// wins. Above it — or with too few samples to judge — the safe choice
	// is dynamic, which degrades gracefully either way.
	autoSpreadStatic = 2.0
	// autoMinSamples is the number of timed probe chunks required before
	// the work may be declared uniform.
	autoMinSamples = 4
	// autoTargetChunkNs sizes dynamic chunks so one claim amortises to
	// roughly this much work.
	autoTargetChunkNs = 100_000

	autoModeStatic  = 1
	autoModeDynamic = 2
)

// autoState is the team-shared calibration state of one schedule(auto)
// loop. The sample accumulators are plain atomics: probe threads add
// concurrently, and the decision maker folds whatever has been published
// by the time the probe range is exhausted (stragglers' samples are a
// tolerable loss — the decision is a heuristic).
type autoState struct {
	// calibEnd is the calibration prefix, stored by every member on
	// entry (the same value under SPMD); -1 marks a loop slot no
	// schedule(auto) loop used this region.
	calibEnd atomic.Int64

	decision atomic.Int64 // packed mode<<32 | chunk; 0 = undecided

	sampleNs    atomic.Int64 // summed wall time over timed probe chunks
	sampleIters atomic.Int64
	samples     atomic.Int64
	minPerIter  atomic.Int64 // ns<<10 per iteration, extremes across chunks
	maxPerIter  atomic.Int64
}

// clear readies the state for the next loop of its slot: the state
// lives in the team's loop table, so an auto loop allocates nothing
// once the team is warm.
func (as *autoState) clear() {
	as.calibEnd.Store(-1)
	as.decision.Store(0)
	as.sampleNs.Store(0)
	as.sampleIters.Store(0)
	as.samples.Store(0)
	as.minPerIter.Store(math.MaxInt64)
	as.maxPerIter.Store(0)
}

// autoCalibration sizes the probe chunks and the calibration prefix of
// an n-iteration loop over a team.
func autoCalibration(n, team int) (probeChunk, calibEnd int) {
	probeChunk = min(max(n/(team*16), 1), autoMaxProbeChunk)
	return probeChunk, min(team*autoProbesPerThread*probeChunk, max(n, 0))
}

// runAuto executes this thread's share of a schedule(auto) loop over
// [0, n).
func (tc *TC) runAuto(ls *loopState, n int, claim func(lo, hi int)) {
	as := &ls.auto
	probeChunk, calibEnd := autoCalibration(n, tc.reg.n)
	as.calibEnd.Store(int64(calibEnd))
	if n <= 0 {
		return
	}
	// Phase 1: calibration. CAS-bounded claims keep the cursor exactly at
	// calibEnd when probing ends, so the dynamic remainder can reuse it.
	for {
		cur := int(ls.next.Load())
		if cur >= calibEnd {
			break
		}
		hi := min(cur+probeChunk, calibEnd)
		if !ls.next.CompareAndSwap(int64(cur), int64(hi)) {
			continue
		}
		start := time.Now()
		claim(cur, hi)
		as.observe(time.Since(start), hi-cur)
	}
	// Phase 2: adopt the (first-closer-wins) decision and run the rest.
	mode, chunk := as.decide(n, calibEnd, tc.reg.n)
	if calibEnd >= n {
		return
	}
	switch mode {
	case autoModeStatic:
		if c, ok := core.StaticBlock(n-calibEnd, tc.reg.n, tc.id); ok {
			claim(calibEnd+c.Lo, calibEnd+c.Hi)
		}
	default:
		ls.dynamic(n, chunk, claim)
	}
}

// observe folds one timed probe chunk into the shared accumulators.
func (as *autoState) observe(d time.Duration, iters int) {
	ns := d.Nanoseconds()
	as.sampleNs.Add(ns)
	as.sampleIters.Add(int64(iters))
	as.samples.Add(1)
	per := (ns << 10) / int64(iters)
	for {
		cur := as.minPerIter.Load()
		if per >= cur || as.minPerIter.CompareAndSwap(cur, per) {
			break
		}
	}
	for {
		cur := as.maxPerIter.Load()
		if per <= cur || as.maxPerIter.CompareAndSwap(cur, per) {
			break
		}
	}
}

// decide returns the committed (mode, chunk), computing and publishing it
// if no thread has yet.
func (as *autoState) decide(n, calibEnd, team int) (mode, chunk int) {
	d := as.decision.Load()
	if d == 0 {
		// Publish this thread's verdict unless another thread beat it to
		// the CAS; either way, adopt whatever is now committed.
		as.decision.CompareAndSwap(0, as.computeDecision(n, calibEnd, team))
		d = as.decision.Load()
	}
	return int(d >> 32), int(d & 0xffffffff)
}

func (as *autoState) computeDecision(n, calibEnd, team int) int64 {
	rem := n - calibEnd
	minP, maxP := as.minPerIter.Load(), as.maxPerIter.Load()
	uniform := as.samples.Load() >= autoMinSamples && minP > 0 &&
		float64(maxP)/float64(minP) <= autoSpreadStatic
	if uniform || rem <= team {
		return autoModeStatic<<32 | 1
	}
	// Skewed (or unjudgeable) work: dynamic, with the chunk sized so one
	// claim covers ~autoTargetChunkNs of measured work, capped to leave
	// each thread several chunks for balance.
	chunk := rem / (team * 4)
	if iters := as.sampleIters.Load(); iters > 0 {
		if perIter := float64(as.sampleNs.Load()) / float64(iters); perIter > 0 {
			if c := int(autoTargetChunkNs / perIter); c < chunk {
				chunk = c
			}
		}
	}
	if chunk < 1 {
		chunk = 1
	}
	return autoModeDynamic<<32 | int64(chunk)
}

// spread returns the observed max/min per-iteration cost ratio (0 when
// fewer than two probe chunks were timed).
func (as *autoState) spread() float64 {
	minP, maxP := as.minPerIter.Load(), as.maxPerIter.Load()
	if as.samples.Load() < 2 || minP <= 0 {
		return 0
	}
	return float64(maxP) / float64(minP)
}

// AutoDecision reports what one schedule(auto) loop measured and chose,
// exposed through RegionStats.
type AutoDecision struct {
	// Loop is the worksharing construct's SPMD sequence number.
	Loop int
	// Mode is "static", "dynamic", or "undecided" (loop never entered
	// its decision phase, e.g. an empty loop).
	Mode string
	// Chunk is the computed dynamic chunk size (1 for static).
	Chunk int
	// PerIterNs is the mean measured cost per iteration over the probes.
	PerIterNs float64
	// Spread is the max/min per-iteration cost ratio across probe chunks.
	Spread float64
	// Samples counts timed probe chunks; CalibEnd is the prefix length.
	Samples  int64
	CalibEnd int
}

func (as *autoState) snapshot(slot int) AutoDecision {
	dec := AutoDecision{
		Loop:     slot,
		Mode:     "undecided",
		Spread:   as.spread(),
		Samples:  as.samples.Load(),
		CalibEnd: int(as.calibEnd.Load()),
	}
	if iters := as.sampleIters.Load(); iters > 0 {
		dec.PerIterNs = float64(as.sampleNs.Load()) / float64(iters)
	}
	switch d := as.decision.Load(); d >> 32 {
	case autoModeStatic:
		dec.Mode, dec.Chunk = "static", 1
	case autoModeDynamic:
		dec.Mode, dec.Chunk = "dynamic", int(d&0xffffffff)
	}
	return dec
}
