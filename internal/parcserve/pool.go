// Request-pipeline pooling (DESIGN.md §11): the per-request objects the
// serving path used to allocate — the decoded JobRequest, the JobResult
// envelope, the JSON response encoder and its buffer, and the error
// envelope — are recycled through sync.Pools. Reclamation invariants:
//
//   - a JobRequest is released by its handler after the response is
//     written; no task body can still reference it, because Result()
//     only returns once the body has finished or been cancelled before
//     it ran (DESIGN.md §10), and the one borrower that can outlive the
//     body — an abandoned webfetch sub-task holding the URLs slice — is
//     defused by dropping URLs at release instead of reusing them;
//   - a JobResult is released by the handler that encoded it; results
//     abandoned by a timed-out handler are simply left to the GC —
//     pools are best-effort;
//   - response encoders are scoped to writeJSON (get, encode, write,
//     put) and never escape.
package parcserve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
)

// jobReqPool recycles decoded request bodies. acquire returns a zeroed
// request (release resets every field), which matters for JSON decoding:
// absent fields keep the struct's current values, so a dirty recycled
// request would leak one request's parameters into the next.
var jobReqPool = sync.Pool{New: func() any { return new(JobRequest) }}

func acquireJobRequest() *JobRequest { return jobReqPool.Get().(*JobRequest) }

func releaseJobRequest(r *JobRequest) {
	// URLs is dropped, not truncated: a webfetch job cancelled mid-flight
	// can leave orphan fetch sub-tasks that still index into the slice,
	// and reusing its backing array would hand them a later request's
	// URLs. Every other field is value-typed and safe to reuse.
	*r = JobRequest{}
	jobReqPool.Put(r)
}

// jobResPool recycles result envelopes; the Summary map rides along
// (cleared, capacity kept), so a steady-state response builds its
// summary into reused buckets.
var jobResPool = sync.Pool{New: func() any {
	return &JobResult{Summary: make(map[string]any, 4)}
}}

func acquireJobResult(kind Kind) *JobResult {
	r := jobResPool.Get().(*JobResult)
	r.Kind = kind
	r.ElapsedMs = 0
	r.Checksum = 0
	if r.Summary == nil {
		r.Summary = make(map[string]any, 4)
	} else {
		clear(r.Summary)
	}
	return r
}

func releaseJobResult(r *JobResult) { jobResPool.Put(r) }

// respEncoder is a pooled response serialiser: the json.Encoder is bound
// to its buffer once, so a steady-state response encode allocates
// neither (the old path built a new json.Encoder — and its internal
// state — per response).
type respEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var respEncPool = sync.Pool{New: func() any {
	e := &respEncoder{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// jsonContentType is the precomputed Content-Type header value, assigned
// directly into the header map under its canonical key: Header().Set
// would canonicalise the key and allocate a fresh one-element slice per
// response.
var jsonContentType = []string{"application/json"}

// writeJSON serialises v into a pooled buffer and writes it with an
// explicit Content-Length (sparing net/http its chunked-encoding path).
func writeJSON(w http.ResponseWriter, code int, v any) {
	e := respEncPool.Get().(*respEncoder)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		respEncPool.Put(e)
		http.Error(w, `{"error":"encoding failed","status":500}`, http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{itoaSmall(e.buf.Len())}
	w.WriteHeader(code)
	_, _ = w.Write(e.buf.Bytes())
	respEncPool.Put(e)
}

// errorResponse is the uniform JSON error shape, encoded as a struct:
// the old map[string]any envelope allocated the map, boxed both values,
// and paid encoding/json's sorted-key map path on every 429/504.
type errorResponse struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

var errRespPool = sync.Pool{New: func() any { return new(errorResponse) }}

// writeError emits the uniform JSON error shape.
func writeError(w http.ResponseWriter, code int, msg string) {
	er := errRespPool.Get().(*errorResponse)
	er.Error, er.Status = msg, code
	writeJSON(w, code, er)
	errRespPool.Put(er)
}

// smallInts precomputes the decimal strings responses use for small
// numbers (Content-Length of compact bodies, Retry-After seconds), so
// the saturation path — which exists to be cheap under overload — does
// not strconv-allocate per rejection.
var smallInts = func() [512]string {
	var t [512]string
	for i := range t {
		t[i] = strconv.Itoa(i)
	}
	return t
}()

func itoaSmall(n int) string {
	if n >= 0 && n < len(smallInts) {
		return smallInts[n]
	}
	return strconv.Itoa(n)
}
