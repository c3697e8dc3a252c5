//go:build !race

// Allocation-budget guards for the serving path's pooled JSON encode
// (pool.go): the error path exists to be cheap under overload, and the
// pooled encoder is what keeps a 429/504 from allocating a fresh
// json.Encoder, a map envelope, and two boxed values per rejection.
// Excluded under -race because the race runtime's instrumentation
// allocates on its own behalf.

package parcserve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
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
	res := acquireJobResult(KindTextSearch)
	res.Summary["files"] = 50
	res.Summary["matches"] = 4
	res.Summary["planted"] = 4
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

// TestEnqueueAllocGuard pins the single-job serving budget: one
// in-process POST /jobs/sort of 64 elements through httptest, the
// parcserve_enqueue shape — request and recorder construction, JSON
// decode, admission, one RunCtx task with its deadline context, the
// sort itself, and the response encode.
func TestEnqueueAllocGuard(t *testing.T) {
	jobAllocGuard(t, "sort", `{"n":64,"seed":751}`, 48)
}

// TestTextSearchAllocGuard pins one in-process POST /jobs/textsearch of
// one file: the serving shape above plus the folder synthesis, which
// allocates per file (path, one text string, its line headers), not per
// line, and the search.
func TestTextSearchAllocGuard(t *testing.T) {
	jobAllocGuard(t, "textsearch", `{"n":1,"seed":751}`, 68)
}

// TestPDFSearchAllocGuard pins one in-process POST /jobs/pdfsearch of one
// document: the serving shape plus the corpus synthesis, which allocates
// per document (name, one text string, its page headers), not per page,
// and the hybrid search.
func TestPDFSearchAllocGuard(t *testing.T) {
	jobAllocGuard(t, "pdfsearch", `{"n":1,"seed":751}`, 71)
}

// jobAllocGuard posts payload to /jobs/{kind} in process until the pools
// are warm, then fails if one more post allocates more than budget
// objects on average.
func jobAllocGuard(t *testing.T, kind, payload string, budget float64) {
	t.Helper()
	s := NewServer(Config{Workers: 4})
	defer func() { _ = s.Drain(5 * time.Second) }()
	body := []byte(payload)
	post := func() {
		req := httptest.NewRequest("POST", "/jobs/"+kind, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	for i := 0; i < 256; i++ {
		post()
	}
	if got := testing.AllocsPerRun(200, post); got > budget {
		t.Fatalf("in-process POST /jobs/%s allocates %v objects/op, want <= %v", kind, got, budget)
	}
}
