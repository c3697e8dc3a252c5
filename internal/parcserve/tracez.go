package parcserve

import (
	"fmt"
	"net/http"
	"sync"

	"parc751/internal/parctrace"
	"parc751/internal/probe"
)

// tracezState is the server's window onto the task-DAG recorder: start
// attaches a fresh recorder to the process-wide probe seam, stop detaches
// it and keeps the dump, and the viewer renders whichever is current — a
// live snapshot while recording, the last captured dump after. The seam
// holds one probe per process, so when several servers share a process
// (an in-process fleet) one of them records at a time, and a server only
// ever detaches its own recorder. The supervisor-facing endpoints are
// deliberately POST so a crawler cannot toggle tracing.
type tracezState struct {
	mu   sync.Mutex
	rec  *parctrace.Recorder
	last *parctrace.Dump
}

// handleTracez serves GET /tracez: the self-contained HTML/SVG viewer
// for the current recording (live) or the last stopped one.
func (s *Server) handleTracez(w http.ResponseWriter, _ *http.Request) {
	d := s.traceDump()
	if d == nil {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprintf(w, "<!doctype html><html><body><h1>parctrace</h1><p>No recording. POST /tracez/start to begin, run some jobs, POST /tracez/stop, then reload.</p></body></html>\n")
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := parctrace.RenderHTML(w, d); err != nil {
		// Headers are gone; all we can do is log-shape the failure inline.
		fmt.Fprintf(w, "<!-- render aborted: %v -->", err)
	}
}

// handleTracezJSON serves GET /tracez/trace.json: the machine-readable
// dump (schema parc751/trace/v1), replayable with `parctrace -replay`.
func (s *Server) handleTracezJSON(w http.ResponseWriter, _ *http.Request) {
	d := s.traceDump()
	if d == nil {
		writeError(w, http.StatusNotFound, "no recording: POST /tracez/start first")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := parctrace.WriteDump(w, d); err != nil {
		// Mid-stream failure: the client sees truncated JSON and a broken
		// connection, which is the honest signal.
		return
	}
}

// handleTracezStart serves POST /tracez/start: attach a fresh recorder
// sized to the pool. 409 if this server is already recording, or if any
// other probe (another server's recording, a chaos run) holds the seam.
func (s *Server) handleTracezStart(w http.ResponseWriter, _ *http.Request) {
	s.trace.mu.Lock()
	defer s.trace.mu.Unlock()
	if s.trace.rec != nil {
		writeError(w, http.StatusConflict, "recording already in progress")
		return
	}
	rec := parctrace.NewRecorder(parctrace.Config{Workers: s.cfg.Workers})
	if !probe.CompareAndSwap(nil, rec) {
		writeError(w, http.StatusConflict, "another probe is attached in this process")
		return
	}
	s.trace.rec = rec
	writeJSON(w, http.StatusOK, map[string]string{"status": "recording"})
}

// handleTracezStop serves POST /tracez/stop: detach the recorder and
// keep its dump as the viewer's content. 409 if nothing is recording.
func (s *Server) handleTracezStop(w http.ResponseWriter, _ *http.Request) {
	s.trace.mu.Lock()
	defer s.trace.mu.Unlock()
	if s.trace.rec == nil {
		writeError(w, http.StatusConflict, "no recording in progress")
		return
	}
	s.stopTraceLocked()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "stopped",
		"recorded": s.trace.last.Recorded,
		"counts":   s.trace.last.Counts,
	})
}

// stopTraceLocked detaches this server's recorder — only its own, by
// compare-and-swap — and keeps its dump. The caller holds s.trace.mu and
// has checked that a recording is running.
func (s *Server) stopTraceLocked() {
	probe.CompareAndSwap(s.trace.rec, nil)
	s.trace.last = s.trace.rec.Snapshot(parctrace.Meta{Name: "parcserve-" + s.cfg.NodeID})
	s.trace.rec = nil
}

// traceDump returns what the viewer should show: a live snapshot while
// recording, else the last stopped dump, else nil.
func (s *Server) traceDump() *parctrace.Dump {
	s.trace.mu.Lock()
	defer s.trace.mu.Unlock()
	if s.trace.rec != nil {
		// Snapshots tolerate concurrent writers (torn slots are skipped
		// and counted lost), so a live view is safe.
		return s.trace.rec.Snapshot(parctrace.Meta{
			Name: "parcserve-" + s.cfg.NodeID + "-live",
		})
	}
	return s.trace.last
}
