package racelab

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(Handler())
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestIndexListsDemos(t *testing.T) {
	srv := newServer(t)
	code, body := get(t, srv.URL+"/")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, name := range DemoNames() {
		if !strings.Contains(body, "/demo/"+name) {
			t.Errorf("index missing link to %s", name)
		}
	}
	if !strings.Contains(body, "/gantt") {
		t.Error("index missing gantt link")
	}
}

func TestDemoPages(t *testing.T) {
	srv := newServer(t)
	for _, name := range DemoNames() {
		code, body := get(t, srv.URL+"/demo/"+name+"?trials=10")
		if code != http.StatusOK {
			t.Fatalf("%s status = %d", name, code)
		}
		for _, want := range []string{"Exhaustive interleavings", "Live forced trials", "racy", "fixed"} {
			if !strings.Contains(body, want) {
				t.Errorf("%s page missing %q", name, want)
			}
		}
	}
}

func TestUnknownDemo404(t *testing.T) {
	srv := newServer(t)
	if code, _ := get(t, srv.URL+"/demo/nothing"); code != http.StatusNotFound {
		t.Fatalf("status = %d", code)
	}
	if code, _ := get(t, srv.URL+"/api/explore/nothing"); code != http.StatusNotFound {
		t.Fatalf("api status = %d", code)
	}
	if code, _ := get(t, srv.URL+"/bogus/path"); code != http.StatusNotFound {
		t.Fatalf("path status = %d", code)
	}
}

func TestExploreAPI(t *testing.T) {
	srv := newServer(t)
	code, body := get(t, srv.URL+"/api/explore/lostupdate")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var resp ExploreResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("bad json: %v\n%s", err, body)
	}
	if resp.Racy.Interleavings != 6 || resp.Racy.Violations != 4 {
		t.Errorf("racy = %+v", resp.Racy)
	}
	if resp.Fixed.Violations != 0 {
		t.Errorf("fixed = %+v", resp.Fixed)
	}
}

func TestTrialAPI(t *testing.T) {
	srv := newServer(t)
	code, body := get(t, srv.URL+"/api/trial/checkthenact?trials=25")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var resp TrialResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("bad json: %v", err)
	}
	if resp.Racy.Trials != 25 {
		t.Errorf("trials = %d, want 25", resp.Racy.Trials)
	}
	if resp.Fixed.Anomalies != 0 {
		t.Errorf("fixed anomalies = %d", resp.Fixed.Anomalies)
	}
}

func TestTrialClamping(t *testing.T) {
	srv := newServer(t)
	_, body := get(t, srv.URL+"/api/trial/lostupdate?trials=999999")
	var resp TrialResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Racy.Trials > 2000 {
		t.Errorf("trials not clamped: %d", resp.Racy.Trials)
	}
	_, body = get(t, srv.URL+"/api/trial/lostupdate?trials=garbage")
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Racy.Trials != 40 {
		t.Errorf("bad trials param should fall back to default, got %d", resp.Racy.Trials)
	}
}

func TestGanttEndpoint(t *testing.T) {
	srv := newServer(t)
	code, body := get(t, srv.URL+"/gantt?procs=4&tasks=32&steal=200")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{"makespan=", "\nw0 ", "\nw3 ", "trace gantt: 4 workers"} {
		if !strings.Contains(body, want) {
			t.Errorf("gantt output missing %q:\n%s", want, body)
		}
	}
}

func TestGanttParamClamping(t *testing.T) {
	srv := newServer(t)
	code, body := get(t, srv.URL+"/gantt?procs=100000&tasks=0")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "on 64 procs") {
		t.Errorf("procs not clamped to 64:\n%s", body[:120])
	}
}

func TestDemosHaveLessons(t *testing.T) {
	for _, d := range Demos() {
		if d.Title == "" || d.Lesson == "" || d.Name == "" {
			t.Errorf("demo %+v incomplete", d.Name)
		}
		racy, fixed := d.explore()
		if racy.Violations == 0 {
			t.Errorf("%s: racy exploration shows no violations", d.Name)
		}
		if fixed.Violations != 0 {
			t.Errorf("%s: fixed exploration shows violations", d.Name)
		}
	}
}
