//go:build !race

// Allocation-budget guards for the serving path's pooled JSON encode
// (pool.go): the error path exists to be cheap under overload, and the
// pooled encoder is what keeps a 429/504 from allocating a fresh
// json.Encoder, a map envelope, and two boxed values per rejection.
// Excluded under -race because the race runtime's instrumentation
// allocates on its own behalf.

package parcserve

import (
	"net/http"
	"testing"
	"time"

	"parc751/internal/core"
)

// nopResponseWriter is the minimal sink for measuring writeJSON: a
// long-lived header map (as net/http keeps per connection) and a body
// write that goes nowhere.
type nopResponseWriter struct {
	h http.Header
}

func (w *nopResponseWriter) Header() http.Header         { return w.h }
func (w *nopResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nopResponseWriter) WriteHeader(int)             {}

// TestWriteErrorAllocGuard pins the pooled error encode: steady state is
// the pooled errorResponse struct, the pooled encoder+buffer, and
// precomputed header fragments. The one tolerated allocation is the
// Content-Length value slice writeJSON builds per response (it cannot be
// pooled — the header map may retain it past the call).
func TestWriteErrorAllocGuard(t *testing.T) {
	w := &nopResponseWriter{h: http.Header{}}
	for i := 0; i < 64; i++ {
		writeError(w, http.StatusTooManyRequests, "parcserve: admission queue full")
	}
	got := testing.AllocsPerRun(200, func() {
		writeError(w, http.StatusTooManyRequests, "parcserve: admission queue full")
	})
	if got > 1 {
		t.Fatalf("pooled writeError allocates %v objects/op, want <= 1", got)
	}
}

// TestWriteJSONResultAllocGuard bounds the success-path encode of a
// pooled JobResult. The envelope's Summary map forces encoding/json
// through its sorted-map path, which allocates the key slice and boxed
// scalars per encode — the guard pins that this stays a handful, not the
// old per-request encoder + envelope construction on top.
func TestWriteJSONResultAllocGuard(t *testing.T) {
	w := &nopResponseWriter{h: http.Header{}}
	res := acquireJobResult(KindSort)
	res.Batched = true
	res.Summary["n"] = 1024
	res.Summary["batch"] = 4
	res.Checksum = 0x9e3779b97f4a7c15
	res.ElapsedMs = 1.25
	defer releaseJobResult(res)
	for i := 0; i < 64; i++ {
		writeJSON(w, http.StatusOK, res)
	}
	got := testing.AllocsPerRun(200, func() {
		writeJSON(w, http.StatusOK, res)
	})
	if got > 8 {
		t.Fatalf("pooled result encode allocates %v objects/op, want <= 8", got)
	}
}

// TestBatcherAddAllocGuard pins the lock-light enqueue: per item, add
// touches only its claimed slot — the cell (struct + slot array) is two
// allocations amortised over a full batch, and item futures cycle
// through the generation-guarded pool. Budget: 2 cell allocations per
// 8-item round, with headroom for the timer-free flush machinery.
func TestBatcherAddAllocGuard(t *testing.T) {
	const batch = 8
	b := newBatcher(batch, time.Hour, func(items []batchItem[int, int]) {
		for _, it := range items {
			it.fut.Complete(it.in, nil)
		}
	})
	defer b.close()
	round := func() {
		var futs [batch]*core.Future[int]
		for i := 0; i < batch; i++ {
			f, ok := b.add(i)
			if !ok {
				t.Fatal("add refused while open")
			}
			futs[i] = f
		}
		for _, f := range futs {
			if _, err := f.Get(); err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			b.releaseFuture(f)
		}
	}
	for i := 0; i < 64; i++ {
		round()
	}
	got := testing.AllocsPerRun(100, round)
	if got > 4 {
		t.Fatalf("8-item batch round allocates %v objects, want <= 4 (2 amortised cell allocations)", got)
	}
}
