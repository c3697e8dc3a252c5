// Package racelab reproduces one of the paper's §V-B research-group
// outcomes: "pedagogical contributions in the form of interactive webpages
// that helped explain typical race conditions and other parallel
// programming pitfalls". It serves a small web application whose pages
// run the memory-model lab's instruments server-side:
//
//	/                     index of demos
//	/demo/{name}          HTML page: explanation + exhaustive interleaving
//	                      table + live forced-trial results
//	/api/explore/{name}   JSON: exhaustive exploration result
//	/api/trial/{name}     JSON: live forced-race trial (?trials=N)
//	/gantt                ASCII timeline (parctrace's renderer) of a
//	                      simulated work-stealing schedule
//	                      (?procs=N&tasks=N&steal=NS)
//
// The handler is plain net/http + html/template, so it embeds in tests
// (httptest) and in the racelab command.
package racelab

import (
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"parc751/internal/machine"
	"parc751/internal/memmodel"
	"parc751/internal/parctrace"
)

// Demo is one interactive pitfall page.
type Demo struct {
	Name    string
	Title   string
	Lesson  string
	explore func() (racy, fixed memmodel.ExploreResult)
	trial   func(trials int) (racy, fixed memmodel.TrialStats)
}

// Demos returns the registered pitfall demos in a stable order.
func Demos() []Demo {
	return []Demo{
		{
			Name:   "lostupdate",
			Title:  "The lost update",
			Lesson: "counter++ is a read-modify-write; two threads interleaving between the read and the write lose an increment. Fix: an atomic increment (or a lock) makes it one indivisible step.",
			explore: func() (memmodel.ExploreResult, memmodel.ExploreResult) {
				racy := memmodel.Explore(
					func() *memmodel.CounterState { return &memmodel.CounterState{} },
					memmodel.LostUpdateOps(0), memmodel.LostUpdateOps(1),
					func(s *memmodel.CounterState) bool { return s.N == 2 })
				fixed := memmodel.Explore(
					func() *memmodel.CounterState { return &memmodel.CounterState{} },
					memmodel.AtomicIncrementOps(0), memmodel.AtomicIncrementOps(1),
					func(s *memmodel.CounterState) bool { return s.N == 2 })
				return racy, fixed
			},
			trial: func(trials int) (memmodel.TrialStats, memmodel.TrialStats) {
				return memmodel.ForcedLostUpdate(trials, 4, 50),
					memmodel.FixedLostUpdate(trials, 4, 50)
			},
		},
		{
			Name:   "publication",
			Title:  "Unsafe publication",
			Lesson: "Setting a ready flag before the data it guards is what an unsynchronised writer may effectively do after reordering; a reader then observes the flag without the data. Fix: store data first and publish the flag with a synchronising operation.",
			explore: func() (memmodel.ExploreResult, memmodel.ExploreResult) {
				racy := memmodel.Explore(
					func() *memmodel.PublishState { return &memmodel.PublishState{Observed: -1} },
					memmodel.UnsafePublishWriterOps(), memmodel.PublishReaderOps(),
					memmodel.PublishOK)
				fixed := memmodel.Explore(
					func() *memmodel.PublishState { return &memmodel.PublishState{Observed: -1} },
					memmodel.SafePublishWriterOps(), memmodel.PublishReaderOps(),
					memmodel.PublishOK)
				return racy, fixed
			},
			trial: func(trials int) (memmodel.TrialStats, memmodel.TrialStats) {
				// Publication has no live harness; reuse the explorer
				// counts scaled as pseudo-trials for the page.
				racy, fixed := memmodel.Explore(
					func() *memmodel.PublishState { return &memmodel.PublishState{Observed: -1} },
					memmodel.UnsafePublishWriterOps(), memmodel.PublishReaderOps(),
					memmodel.PublishOK),
					memmodel.Explore(
						func() *memmodel.PublishState { return &memmodel.PublishState{Observed: -1} },
						memmodel.SafePublishWriterOps(), memmodel.PublishReaderOps(),
						memmodel.PublishOK)
				return memmodel.TrialStats{Trials: racy.Interleavings, Anomalies: racy.Violations},
					memmodel.TrialStats{Trials: fixed.Interleavings, Anomalies: fixed.Violations}
			},
		},
		{
			Name:   "checkthenact",
			Title:  "Check-then-act",
			Lesson: "Checking a condition and acting on it as two separate steps lets another thread invalidate the check in between (double-initialisation, double-spend). Fix: a compound atomic operation such as GetOrCompute.",
			explore: func() (memmodel.ExploreResult, memmodel.ExploreResult) {
				racy := memmodel.Explore(
					func() *memmodel.CacheState { return &memmodel.CacheState{} },
					memmodel.CheckThenActOps(0), memmodel.CheckThenActOps(1),
					func(s *memmodel.CacheState) bool { return s.Computes == 1 })
				fixed := memmodel.Explore(
					func() *memmodel.CacheState { return &memmodel.CacheState{} },
					memmodel.AtomicCheckThenActOps(0), memmodel.AtomicCheckThenActOps(1),
					func(s *memmodel.CacheState) bool { return s.Computes == 1 })
				return racy, fixed
			},
			trial: func(trials int) (memmodel.TrialStats, memmodel.TrialStats) {
				return memmodel.ForcedDoubleCompute(trials), memmodel.FixedDoubleCompute(trials)
			},
		},
	}
}

func demoByName(name string) (Demo, bool) {
	for _, d := range Demos() {
		if d.Name == name {
			return d, true
		}
	}
	return Demo{}, false
}

// Handler returns the racelab HTTP handler.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", serveIndex)
	mux.HandleFunc("/demo/", serveDemo)
	mux.HandleFunc("/api/explore/", serveExplore)
	mux.HandleFunc("/api/trial/", serveTrial)
	mux.HandleFunc("/gantt", serveGantt)
	return mux
}

var indexTmpl = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><title>PARC race lab</title></head><body>
<h1>Parallel programming pitfalls</h1>
<p>Interactive demonstrations of typical race conditions (SoftEng 751 / PARC lab).</p>
<ul>
{{range .}}<li><a href="/demo/{{.Name}}">{{.Title}}</a></li>
{{end}}</ul>
<p><a href="/gantt?procs=8&tasks=64&steal=400">Work-stealing schedule Gantt</a></p>
</body></html>`))

var demoTmpl = template.Must(template.New("demo").Parse(`<!DOCTYPE html>
<html><head><title>{{.Title}}</title></head><body>
<h1>{{.Title}}</h1>
<p>{{.Lesson}}</p>
<h2>Exhaustive interleavings</h2>
<table border="1">
<tr><th>version</th><th>interleavings</th><th>violations</th></tr>
<tr><td>racy</td><td>{{.Racy.Interleavings}}</td><td>{{.Racy.Violations}}</td></tr>
<tr><td>fixed</td><td>{{.Fixed.Interleavings}}</td><td>{{.Fixed.Violations}}</td></tr>
</table>
<h2>Live forced trials ({{.Trials}} runs)</h2>
<table border="1">
<tr><th>version</th><th>anomalies</th><th>rate</th></tr>
<tr><td>racy</td><td>{{.TrialRacy.Anomalies}}</td><td>{{printf "%.0f%%" .RacyRate}}</td></tr>
<tr><td>fixed</td><td>{{.TrialFixed.Anomalies}}</td><td>{{printf "%.0f%%" .FixedRate}}</td></tr>
</table>
<p><a href="/">back</a></p>
</body></html>`))

func serveIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := indexTmpl.Execute(w, Demos()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func serveDemo(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/demo/")
	d, ok := demoByName(name)
	if !ok {
		http.NotFound(w, r)
		return
	}
	racy, fixed := d.explore()
	trials := queryInt(r, "trials", 40, 1, 2000)
	tRacy, tFixed := d.trial(trials)
	data := struct {
		Demo
		Racy, Fixed           memmodel.ExploreResult
		Trials                int
		TrialRacy, TrialFixed memmodel.TrialStats
		RacyRate, FixedRate   float64
	}{d, racy, fixed, trials, tRacy, tFixed, tRacy.Rate() * 100, tFixed.Rate() * 100}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := demoTmpl.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// ExploreResponse is the /api/explore payload.
type ExploreResponse struct {
	Demo  string                 `json:"demo"`
	Racy  memmodel.ExploreResult `json:"racy"`
	Fixed memmodel.ExploreResult `json:"fixed"`
}

func serveExplore(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/api/explore/")
	d, ok := demoByName(name)
	if !ok {
		http.Error(w, "unknown demo", http.StatusNotFound)
		return
	}
	racy, fixed := d.explore()
	writeJSON(w, ExploreResponse{Demo: name, Racy: racy, Fixed: fixed})
}

// TrialResponse is the /api/trial payload.
type TrialResponse struct {
	Demo  string              `json:"demo"`
	Racy  memmodel.TrialStats `json:"racy"`
	Fixed memmodel.TrialStats `json:"fixed"`
}

func serveTrial(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/api/trial/")
	d, ok := demoByName(name)
	if !ok {
		http.Error(w, "unknown demo", http.StatusNotFound)
		return
	}
	trials := queryInt(r, "trials", 40, 1, 2000)
	racy, fixed := d.trial(trials)
	writeJSON(w, TrialResponse{Demo: name, Racy: racy, Fixed: fixed})
}

func serveGantt(w http.ResponseWriter, r *http.Request) {
	procs := queryInt(r, "procs", 8, 1, 64)
	tasks := queryInt(r, "tasks", 64, 1, 4096)
	steal := queryInt(r, "steal", 400, 0, 1000000)
	m := machine.New(machine.Config{Name: "gantt", Procs: procs, SpeedFactor: 1,
		StealLatency: uint64(steal)})
	m.EnableTrace()
	for i := 0; i < tasks; i++ {
		m.Submit(0, uint64(500+137*(i%7)), nil)
	}
	st := m.Run()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "work-stealing schedule: %d tasks on %d procs (steal latency %d)\n",
		tasks, procs, steal)
	fmt.Fprintf(w, "makespan=%d busy=%d steals=%d util=%.2f\n\n",
		st.Makespan, st.BusyNs, st.Steals, st.AvgUtil)
	fmt.Fprint(w, parctrace.RenderASCII(m.Trace(), 72))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func queryInt(r *http.Request, key string, def, lo, hi int) int {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	if n < lo {
		n = lo
	}
	if n > hi {
		n = hi
	}
	return n
}

// DemoNames lists the demo slugs, sorted.
func DemoNames() []string {
	var out []string
	for _, d := range Demos() {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}
