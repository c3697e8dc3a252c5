//go:build !race

// Allocation-budget guard for the router hop. Excluded under -race
// because the race runtime's instrumentation allocates.

package parccluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// hopAllocBudget is the measured allocations per routed job plus 2.
const hopAllocBudget = 86

// TestRouterHopAllocGuard pins the router hop's allocations per job: one
// job routed through Router.ServeHTTP to an in-process node over
// loopback. testing.AllocsPerRun reads process-wide Mallocs, so the
// count covers the router, its transport's connection goroutines and
// the node's net/http side. The node is a stub answering a fixed body,
// and the inbound request and response writer are reused, so the count
// moves only with the hop.
func TestRouterHopAllocGuard(t *testing.T) {
	answer := []byte(`{"kind":"sort","checksum":42}` + "\n")
	ctype, clen := []string{"application/json"}, []string{strconv.Itoa(len(answer))}
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		h := w.Header()
		h["Content-Type"] = ctype
		h["Content-Length"] = clen
		_, _ = w.Write(answer)
	}))
	defer node.Close()
	rt := newQuietRouter(RouterConfig{})
	defer rt.Close()
	rt.SetNode("n0", node.URL)

	payload := []byte(`{"seed":1,"n":10}`)
	body := new(jobBody)
	req := httptest.NewRequest(http.MethodPost, "/jobs/sort", body)
	w := &replayWriter{h: http.Header{}}
	cycle := func() {
		body.Reset(payload)
		clear(w.h)
		w.code, w.n = 0, 0
		rt.ServeHTTP(w, req)
		if w.code != http.StatusOK || w.n != len(answer) {
			t.Fatalf("routed job answered %d with %d bytes", w.code, w.n)
		}
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	got := testing.AllocsPerRun(200, cycle)
	t.Logf("router hop: %v allocs/job", got)
	if got > hopAllocBudget {
		t.Fatalf("one routed job allocates %v objects, want <= %d", got, hopAllocBudget)
	}
	if led := rt.Ledger(); led.Completed != led.Accepted || led.Lost != 0 {
		t.Fatalf("ledger off: %+v", led)
	}
}

// replayWriter is a ResponseWriter the guard reuses across jobs.
type replayWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *replayWriter) Header() http.Header { return w.h }

func (w *replayWriter) WriteHeader(code int) { w.code = code }

func (w *replayWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.n += len(p)
	return len(p), nil
}
