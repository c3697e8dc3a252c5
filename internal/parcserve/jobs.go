// Job kinds and their executors. Every kind maps one of the paper's
// student projects (§IV-C) onto a request/response shape: the request
// carries a seed and size parameters, the workload is synthesised
// deterministically from them (the same hermetic generators the
// experiments use), and the response summarises the result. Two kinds
// step outside that pattern: "webfetch" takes explicit URLs (the one
// workload that touches a network), and "spin" is a calibrated busy
// worker used by the load-test harness to hold a slot for a known time.
package parcserve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"parc751/internal/kernels"
	"parc751/internal/pdfsearch"
	"parc751/internal/sortalgo"
	"parc751/internal/textsearch"
	"parc751/internal/thumbs"
	"parc751/internal/workload"
)

// Kind names a job type the server can execute.
type Kind string

// The served job kinds. KindSpin exists for load testing; the rest are
// the course workloads.
const (
	KindSort       Kind = "sort"       // parallel quicksort (project 2)
	KindTextSearch Kind = "textsearch" // folder text search (project 4)
	KindPDFSearch  Kind = "pdfsearch"  // paged-document search (project 7)
	KindThumbs     Kind = "thumbs"     // thumbnail rendering (project 1)
	KindMatMul     Kind = "matmul"     // dense matmul kernel (Pyjama worksharing)
	KindWebFetch   Kind = "webfetch"   // concurrent web access (project 10)
	KindSpin       Kind = "spin"       // synthetic busy job for load tests
)

// Kinds lists every served kind in a stable order.
func Kinds() []Kind {
	return []Kind{KindSort, KindTextSearch, KindPDFSearch, KindThumbs,
		KindMatMul, KindWebFetch, KindSpin}
}

// JobRequest is the JSON body of POST /jobs/{kind}. Fields are a union
// over kinds; unused ones are ignored. Zero values select the kind's
// defaults, so `{}` is always a valid small job.
type JobRequest struct {
	// Seed keys the deterministic workload generator (default 751).
	Seed uint64 `json:"seed,omitempty"`
	// N scales the workload: array length (sort), file count
	// (textsearch), document count (pdfsearch), image count (thumbs),
	// matrix dimension (matmul).
	N int `json:"n,omitempty"`
	// DeadlineMs bounds the job's total lifetime — admission wait, queue
	// time, and execution (default and cap are server config).
	DeadlineMs int `json:"deadline_ms,omitempty"`
	// Query is the needle for the search kinds (default: the generator's
	// planted needle, so matches are guaranteed).
	Query string `json:"query,omitempty"`
	// URLs is the fetch set for webfetch jobs.
	URLs []string `json:"urls,omitempty"`
	// SpinMs is the busy time for spin jobs (default 5, capped at 1000).
	SpinMs int `json:"spin_ms,omitempty"`
}

// JobResult is the JSON body of a successful job response. Summary is
// kind-specific; Checksum lets a caller verify determinism (same seed,
// same params, same checksum).
type JobResult struct {
	Kind      Kind           `json:"kind"`
	ElapsedMs float64        `json:"elapsed_ms"`
	Summary   map[string]any `json:"summary"`
	Checksum  uint64         `json:"checksum"`
}

const (
	defaultSeed = 751
	maxSpin     = time.Second
)

// errBadRequest wraps parameter errors so the handler can map them to 400
// instead of 500.
var errBadRequest = errors.New("parcserve: bad request")

// clampN bounds a request's N into [1, max], applying def when unset.
func clampN(n, def, max int) int {
	if n <= 0 {
		return def
	}
	if n > max {
		return max
	}
	return n
}

// fnv1a folds b into h (FNV-1a step), the checksum accumulator.
func fnv1a(h uint64, b uint64) uint64 {
	const prime = 1099511628211
	if h == 0 {
		h = 14695981039346656037
	}
	for i := 0; i < 8; i++ {
		h ^= (b >> (8 * i)) & 0xff
		h *= prime
	}
	return h
}

// execute runs one job body on the runtime. It is called from inside a
// ptask.RunCtx task, so recursive decompositions join by helping and the
// context carries the job deadline. Executors check ctx between phases;
// the inner decompositions are cooperative, not preemptible (DESIGN §10).
func (s *Server) execute(ctx context.Context, kind Kind, req *JobRequest) (*JobResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	seed := req.Seed
	if seed == 0 {
		seed = defaultSeed
	}
	// The envelope is pooled; the handler that encodes it releases it
	// (pool.go). Error returns below just drop it to the GC — the error
	// paths are cold and a leaked envelope is only a missed reuse.
	res := acquireJobResult(kind)
	switch kind {
	case KindSort:
		n := clampN(req.N, 10_000, 2_000_000)
		xs := workload.IntArray(seed, n, n*4)
		sortalgo.PTask(s.rt, xs, 2048)
		if !sort.IntsAreSorted(xs) {
			return nil, fmt.Errorf("parcserve: sort produced unsorted output")
		}
		for i := 0; i < len(xs); i += 1 + len(xs)/64 {
			res.Checksum = fnv1a(res.Checksum, uint64(xs[i]))
		}
		res.Summary["n"] = n

	case KindTextSearch:
		spec := workload.DefaultFolderSpec(seed)
		spec.NumFiles = clampN(req.N, 50, 2000)
		folder, planted := workload.GenFolder(spec)
		query := req.Query
		if query == "" {
			query = spec.NeedleWord
		}
		matches := textsearch.NewSearcher(s.rt).Search(folder, textsearch.Literal(query), textsearch.Options{})
		res.Summary["files"] = len(folder.Files)
		res.Summary["matches"] = len(matches)
		res.Summary["planted"] = planted
		for _, m := range matches {
			res.Checksum = fnv1a(res.Checksum, uint64(m.Line))
		}

	case KindPDFSearch:
		spec := workload.DefaultDocSpec(seed)
		spec.NumDocs = clampN(req.N, 30, 500)
		docs, planted := workload.GenDocs(spec)
		query := req.Query
		if query == "" {
			query = spec.Needle
		}
		hits := pdfsearch.Search(s.rt, docs, query, pdfsearch.Options{Granularity: pdfsearch.Hybrid})
		res.Summary["docs"] = len(docs)
		res.Summary["hits"] = len(hits)
		res.Summary["planted"] = planted
		for _, h := range hits {
			res.Checksum = fnv1a(res.Checksum, uint64(h.Page))
		}

	case KindThumbs:
		n := clampN(req.N, 24, 500)
		imgs := workload.GenImageSet(seed, n, 64, 256)
		out := thumbs.PTask(s.rt, imgs, 32, 32, nil)
		res.Summary["images"] = n
		for _, im := range out {
			for _, px := range im.Pix[:minInt(16, len(im.Pix))] {
				res.Checksum = fnv1a(res.Checksum, uint64(px))
			}
		}

	case KindMatMul:
		n := clampN(req.N, 96, 512)
		a := kernels.RandomMatrix(seed, n, n)
		b := kernels.RandomMatrix(seed+1, n, n)
		// The stats-returning kernel lets /statz expose the Pyjama side of
		// the runtime (worksharing + barrier counters), not just the pool.
		c, stats := kernels.MatMulParallelStats(s.cfg.Workers, a, b)
		s.recordRegion(stats)
		res.Summary["dim"] = n
		res.Summary["iterations"] = stats.TotalIterations()
		for i := 0; i < len(c.Data); i += 1 + len(c.Data)/64 {
			res.Checksum = fnv1a(res.Checksum, uint64(int64(c.Data[i]*1e6)))
		}

	case KindWebFetch:
		if len(req.URLs) == 0 {
			return nil, fmt.Errorf("%w: webfetch needs urls", errBadRequest)
		}
		if len(req.URLs) > 64 {
			return nil, fmt.Errorf("%w: at most 64 urls per job", errBadRequest)
		}
		results := s.fetcher.FetchAllCtx(ctx, req.URLs, nil)
		okN, bytes := 0, 0
		for _, r := range results {
			if r.Err == nil {
				okN++
				bytes += r.Bytes
			}
			res.Checksum = fnv1a(res.Checksum, uint64(r.Bytes))
		}
		res.Summary["urls"] = len(req.URLs)
		res.Summary["fetched"] = okN
		res.Summary["bytes"] = bytes
		res.Summary["breaker"] = s.breaker.State().String()

	case KindSpin:
		d := time.Duration(clampN(req.SpinMs, 5, int(maxSpin/time.Millisecond))) * time.Millisecond
		// Sleep in ctx-aware slices: a spin job is a stand-in for real
		// work of a known duration, and must honour its deadline.
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		res.Summary["spin_ms"] = d.Milliseconds()
		res.Checksum = fnv1a(res.Checksum, uint64(d))

	default:
		return nil, fmt.Errorf("%w: unknown kind %q", errBadRequest, kind)
	}
	return res, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
