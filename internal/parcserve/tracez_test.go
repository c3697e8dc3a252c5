package parcserve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"parc751/internal/parctrace"
	"parc751/internal/probe"
)

// TestTracezLifecycle drives the full /tracez surface over real HTTP:
// start a recording, serve jobs, stop, and check both the JSON dump and
// the HTML viewer reflect the recorded schedule.
func TestTracezLifecycle(t *testing.T) {
	s := NewServer(Config{Workers: 2, NodeID: "tracez-test"})
	defer func() {
		if err := s.Drain(5 * time.Second); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	ts := httptest.NewServer(s)
	defer ts.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		return resp, string(body)
	}
	post := func(path string, want int) string {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", nil)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		if resp.StatusCode != want {
			t.Fatalf("POST %s = %d, want %d: %s", path, resp.StatusCode, want, body)
		}
		return string(body)
	}

	// Before any recording: viewer explains itself, JSON is 404.
	if resp, body := get("/tracez"); resp.StatusCode != http.StatusOK || !strings.Contains(body, "No recording") {
		t.Fatalf("cold /tracez: %d %q", resp.StatusCode, body)
	}
	if resp, _ := get("/tracez/trace.json"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cold trace.json status = %d, want 404", resp.StatusCode)
	}

	post("/tracez/start", http.StatusOK)
	post("/tracez/start", http.StatusConflict) // one recording at a time

	// Generate traced work through the normal job surface.
	for i := 0; i < 4; i++ {
		resp, err := http.Post(ts.URL+"/jobs/sort", "application/json",
			strings.NewReader(`{"n": 2000, "seed": 7}`))
		if err != nil {
			t.Fatalf("job: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sort job status = %d", resp.StatusCode)
		}
	}

	// Live view while recording still attached.
	if _, body := get("/tracez"); !strings.Contains(body, "trace-data") {
		t.Fatal("live /tracez is not the rendered viewer")
	}

	stopBody := post("/tracez/stop", http.StatusOK)
	if !strings.Contains(stopBody, `"status": "stopped"`) && !strings.Contains(stopBody, `"status":"stopped"`) {
		t.Fatalf("stop response: %s", stopBody)
	}
	post("/tracez/stop", http.StatusConflict)
	if probe.Load() != nil {
		t.Fatal("recorder still attached to the probe seam after stop")
	}

	// The dump must parse under the v1 schema and show the jobs' tasks.
	_, raw := get("/tracez/trace.json")
	d, err := parctrace.ReadDump([]byte(raw))
	if err != nil {
		t.Fatalf("trace.json invalid: %v", err)
	}
	if d.Counts["submit"] == 0 || d.Counts["run"] == 0 {
		t.Fatalf("dump shows no scheduled work: %v", d.Counts)
	}
	if d.Counts["run"] != d.Counts["complete"] {
		t.Fatalf("run/complete not conserved in dump: %v", d.Counts)
	}

	// The viewer now renders the stopped dump with the embedded JSON and
	// a non-empty DAG.
	_, page := get("/tracez")
	for _, want := range []string{"<!doctype html>", "<svg", `id="trace-data"`, "</html>"} {
		if !strings.Contains(page, want) {
			t.Fatalf("viewer missing %q", want)
		}
	}
	start := strings.Index(page, `id="trace-data">`)
	end := strings.Index(page[start:], "</script>")
	var embedded struct {
		DAG struct {
			Nodes []json.RawMessage `json:"nodes"`
		} `json:"dag"`
	}
	if err := json.Unmarshal([]byte(page[start+len(`id="trace-data">`):start+end]), &embedded); err != nil {
		t.Fatalf("embedded trace-data: %v", err)
	}
	if len(embedded.DAG.Nodes) == 0 {
		t.Fatal("embedded DAG empty after recorded jobs")
	}
}

// TestTracezDrainDetaches: draining a server with a live recording must
// detach the global recorder (it would otherwise keep tracing a pool
// that no longer exists) and keep the dump viewable.
func TestTracezDrainDetaches(t *testing.T) {
	s := NewServer(Config{Workers: 2, NodeID: "drain-trace"})
	w := httptest.NewRecorder()
	s.handleTracezStart(w, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("start: %d", w.Code)
	}
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if pr := probe.Load(); pr != nil {
		probe.CompareAndSwap(pr, nil)
		t.Fatal("recorder leaked past Drain")
	}
	if s.traceDump() == nil {
		t.Fatal("dump not retained across Drain")
	}
}

// TestTracezTwoServersOneProcess: servers sharing a process (an
// in-process fleet) share the one probe seam. A second server's start
// must be refused while the first records, and neither its stop nor its
// drain may detach the first server's recorder — the trace of the node
// that is recording must survive intact.
func TestTracezTwoServersOneProcess(t *testing.T) {
	a := NewServer(Config{Workers: 2, NodeID: "node-a"})
	b := NewServer(Config{Workers: 2, NodeID: "node-b"})
	defer a.Drain(5 * time.Second)
	call := func(s *Server, method, path, body string) int {
		t.Helper()
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
		return w.Code
	}

	if code := call(a, http.MethodPost, "/tracez/start", ""); code != http.StatusOK {
		t.Fatalf("node-a start = %d, want 200", code)
	}
	attached := probe.Load()
	if code := call(b, http.MethodPost, "/tracez/start", ""); code != http.StatusConflict {
		t.Fatalf("node-b start while node-a records = %d, want 409", code)
	}
	if code := call(b, http.MethodPost, "/tracez/stop", ""); code != http.StatusConflict {
		t.Fatalf("node-b stop without a recording = %d, want 409", code)
	}
	if err := b.Drain(5 * time.Second); err != nil {
		t.Fatalf("node-b drain: %v", err)
	}
	if probe.Load() != attached {
		t.Fatal("node-b's stop or drain detached node-a's recorder")
	}

	if code := call(a, http.MethodPost, "/jobs/sort", `{"n": 2000, "seed": 7}`); code != http.StatusOK {
		t.Fatalf("node-a sort job = %d", code)
	}
	if code := call(a, http.MethodPost, "/tracez/stop", ""); code != http.StatusOK {
		t.Fatalf("node-a stop = %d, want 200", code)
	}
	if probe.Load() != nil {
		t.Fatal("node-a's stop left its recorder attached")
	}
	d := a.traceDump()
	if d == nil || d.Counts["submit"] == 0 || d.Counts["run"] != d.Counts["complete"] {
		t.Fatalf("node-a's trace lost or unconserved: %+v", d)
	}
}
