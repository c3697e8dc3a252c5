package parccluster

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"parc751/internal/faultinject"
	"parc751/internal/parcserve"
	"parc751/internal/probe"
)

// TestRouterInjectedErrorReadsAsPost: a transport error on a forward
// keeps the text http.Client gave it, Post "<node>/jobs/<kind>": cause,
// in the failover event, the mark-down and any 502 body.
func TestRouterInjectedErrorReadsAsPost(t *testing.T) {
	fakes := map[string]*fakeWorker{
		"a": newFakeWorker(http.StatusOK),
		"b": newFakeWorker(http.StatusOK),
	}
	for _, f := range fakes {
		defer f.srv.Close()
	}
	in := faultinject.New(faultinject.Plan{Name: "first-forward-fails",
		Rules: []faultinject.Rule{{Site: probe.SiteTransport, Kind: faultinject.Error}}})
	rt := newQuietRouter(RouterConfig{Injector: in})
	defer rt.Close()
	for id, f := range fakes {
		rt.SetNode(id, f.srv.URL)
	}
	rt.mu.RLock()
	primary := walkOrder(rt.ring, "sort")[0]
	rt.mu.RUnlock()

	if w := postJob(t, rt, "sort", parcserve.JobRequest{Seed: 1, N: 10}); w.Code != http.StatusOK {
		t.Fatalf("client saw %d, want 200 via failover; body %s", w.Code, w.Body)
	}
	want := `Post "` + fakes[primary].srv.URL + `/jobs/sort": `
	var failovers []string
	for _, e := range rt.Events().Events() {
		switch e.Type {
		case EvFailover:
			failovers = append(failovers, e.Detail)
		case EvMarkDown:
			if !strings.HasPrefix(e.Detail, "transport: "+want) {
				t.Errorf("mark-down detail %q, want prefix %q", e.Detail, "transport: "+want)
			}
		}
	}
	if len(failovers) != 1 {
		t.Fatalf("failover events %q, want exactly one", failovers)
	}
	if d := failovers[0]; !strings.HasPrefix(d, want) || !strings.Contains(d, "injected") {
		t.Fatalf("failover detail %q, want %q followed by the injected error", d, want)
	}
	if led := rt.Ledger(); led.Accepted != 1 || led.Completed != 1 || led.Failovers != 1 || led.Lost != 0 {
		t.Fatalf("ledger off: %+v", led)
	}
}

// TestRouterClientGoneWhileNodeBlocks: a client that hangs up while the
// node is still working cancels the forward through the inbound
// request's context. The job settles as a 502 "client gone", the ledger
// balances, and the node, which did nothing wrong, stays routable.
func TestRouterClientGoneWhileNodeBlocks(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer node.Close()
	defer close(release)
	rt := newQuietRouter(RouterConfig{})
	defer rt.Close()
	rt.SetNode("n0", node.URL)

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/jobs/sort", strings.NewReader(`{"seed":1,"n":10}`)).WithContext(ctx)
	w := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.ServeHTTP(w, req)
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the node never received the forward")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelling the inbound request did not end the forward")
	}
	if w.Code != http.StatusBadGateway || !strings.Contains(w.Body.String(), "client gone: context canceled") {
		t.Fatalf("got %d %q, want 502 client gone", w.Code, w.Body)
	}
	if led := rt.Ledger(); led.Accepted != 1 || led.Rejected != 1 || led.Failovers != 0 || led.Lost != 0 {
		t.Fatalf("ledger off: %+v", led)
	}
	if n := rt.Nodes()[0]; !n.Alive {
		t.Fatal("a client hang-up marked the node down")
	}
}

// TestRouterRejectBodies pins the router's own error bodies byte for
// byte: a router with no members answers 503, and a cluster whose every
// node answers 429 answers 429.
func TestRouterRejectBodies(t *testing.T) {
	empty := newQuietRouter(RouterConfig{})
	defer empty.Close()
	full := map[string]*fakeWorker{
		"a": newFakeWorker(http.StatusTooManyRequests),
		"b": newFakeWorker(http.StatusTooManyRequests),
	}
	for _, f := range full {
		f.set(http.StatusTooManyRequests, 1)
		defer f.srv.Close()
	}
	saturated, _ := newTestRouter(t, "sort", full)
	defer saturated.Close()

	for _, c := range []struct {
		rt   *Router
		code int
		body string
	}{
		{empty, http.StatusServiceUnavailable, `{"error":"no routable nodes"}` + "\n"},
		{saturated, http.StatusTooManyRequests, `{"error":"cluster saturated"}` + "\n"},
	} {
		w := postJob(t, c.rt, "sort", parcserve.JobRequest{Seed: 1, N: 10})
		if w.Code != c.code || w.Body.String() != c.body {
			t.Errorf("got %d %q, want %d %q", w.Code, w.Body, c.code, c.body)
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type %q on the %d body", ct, c.code)
		}
		if led := c.rt.Ledger(); led.Rejected != 1 || led.Lost != 0 {
			t.Errorf("ledger off after the %d: %+v", c.code, led)
		}
	}
}

// TestRouterOversizedBody: a job body over the 1 MiB cap, announced by
// its Content-Length or of unknown length, is answered 400 without a
// forward and settles as rejected.
func TestRouterOversizedBody(t *testing.T) {
	node := newFakeWorker(http.StatusOK)
	defer node.srv.Close()
	big := make([]byte, 1<<20+1)
	for _, body := range []io.Reader{bytes.NewReader(big), io.MultiReader(bytes.NewReader(big))} {
		rt := newQuietRouter(RouterConfig{})
		rt.SetNode("n0", node.srv.URL)
		w := httptest.NewRecorder()
		rt.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/jobs/sort", body))
		rt.Close()
		want := `{"error":"reading body: http: request body too large"}` + "\n"
		if w.Code != http.StatusBadRequest || w.Body.String() != want {
			t.Errorf("got %d %q, want 400 %q", w.Code, w.Body, want)
		}
		if led := rt.Ledger(); led.Accepted != 1 || led.Rejected != 1 || led.Lost != 0 {
			t.Errorf("ledger off: %+v", led)
		}
	}
	if n := node.hits.Load(); n != 0 {
		t.Fatalf("an oversized body was forwarded %d times", n)
	}
}

// TestRouterForwardsChunkedBody: a job body of unknown length (chunked
// on the wire) reaches the node byte for byte, announced by its length.
func TestRouterForwardsChunkedBody(t *testing.T) {
	type received struct {
		length int64
		body   []byte
	}
	got := make(chan received, 1)
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		got <- received{r.ContentLength, b}
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"kind":"sort","checksum":1}`+"\n")
	}))
	defer node.Close()
	rt := newQuietRouter(RouterConfig{})
	defer rt.Close()
	rt.SetNode("n0", node.URL)
	front := httptest.NewServer(rt)
	defer front.Close()

	payload := bytes.Repeat([]byte(`{"seed":1,"n":10}`), 4096)
	var wire bytes.Buffer
	wire.WriteString("POST /jobs/sort HTTP/1.1\r\nHost: router\r\nConnection: close\r\nTransfer-Encoding: chunked\r\n\r\n")
	for rest := payload; len(rest) > 0; rest = rest[min(len(rest), 5000):] {
		fmt.Fprintf(&wire, "%x\r\n%s\r\n", min(len(rest), 5000), rest[:min(len(rest), 5000)])
	}
	wire.WriteString("0\r\n\r\n")
	if code, body := rawExchange(t, front.Listener.Addr().String(), wire.Bytes(), false); code != http.StatusOK {
		t.Fatalf("got %d %q, want 200", code, body)
	}
	r := <-got
	if r.length != int64(len(payload)) || !bytes.Equal(r.body, payload) {
		t.Fatalf("node got %d bytes announced as %d, want the %d-byte payload", len(r.body), r.length, len(payload))
	}
	if led := rt.Ledger(); led.Accepted != 1 || led.Completed != 1 || led.Lost != 0 {
		t.Fatalf("ledger off: %+v", led)
	}
}

// TestRouterTruncatedBody: a client that announces more body than it
// sends before closing its side gets a 400, nothing is forwarded, and
// the job settles as rejected.
func TestRouterTruncatedBody(t *testing.T) {
	node := newFakeWorker(http.StatusOK)
	defer node.srv.Close()
	rt := newQuietRouter(RouterConfig{})
	defer rt.Close()
	rt.SetNode("n0", node.srv.URL)
	front := httptest.NewServer(rt)
	defer front.Close()

	wire := "POST /jobs/sort HTTP/1.1\r\nHost: router\r\nContent-Length: 64\r\n\r\n" + `{"seed":1,"n":10}`
	code, body := rawExchange(t, front.Listener.Addr().String(), []byte(wire), true)
	if want := `{"error":"reading body: unexpected EOF"}` + "\n"; code != http.StatusBadRequest || body != want {
		t.Fatalf("got %d %q, want 400 %q", code, body, want)
	}
	if led := rt.Ledger(); led.Accepted != 1 || led.Rejected != 1 || led.Lost != 0 {
		t.Fatalf("ledger off: %+v", led)
	}
	if n := node.hits.Load(); n != 0 {
		t.Fatalf("a truncated body was forwarded %d times", n)
	}
}

// rawExchange writes wire on a fresh connection to addr, half-closes it
// when closeWrite is set, and reads one response.
func rawExchange(t *testing.T, addr string, wire []byte, closeWrite bool) (int, string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	if closeWrite {
		_ = conn.(*net.TCPConn).CloseWrite()
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestFleetStopClosesRouterConnections: the router's keep-alive
// connections to its nodes close with the fleet, even when the nodes
// outlive it. The fake nodes here stay up until the test ends, and the
// fleet's health checks and forwards share the router's transport, so
// any net/http persistConn goroutine left is one of the router's.
func TestFleetStopClosesRouterConnections(t *testing.T) {
	f, _, _, _ := startFakeFleet(t)
	for i := 0; i < 3; i++ {
		if w := postJob(t, f.Router(), "sort", parcserve.JobRequest{Seed: uint64(i), N: 10}); w.Code != http.StatusOK {
			t.Fatalf("job %d: %d %s", i, w.Code, w.Body)
		}
	}
	if persistConns() == 0 {
		t.Fatal("no keep-alive connection after three forwards; the check below would prove nothing")
	}
	_ = f.Stop()
	waitNoPersistConns(t)
}

// TestFleetStopClosesPollerConnections: the load poller's /statz
// requests ride the router's transport, so the keep-alive connection a
// poll leaves closes with the fleet too.
func TestFleetStopClosesPollerConnections(t *testing.T) {
	f, _, _, _ := startFakeFleet(t)
	f.Router().RefreshLoad()
	if n := f.Router().Nodes(); len(n) != 1 || n[0].Depth != 7 {
		t.Fatalf("poll did not read the node's /statz: %+v", n)
	}
	_ = f.Stop()
	waitNoPersistConns(t)
}

// waitNoPersistConns polls for up to 5 s until no client keep-alive
// connection remains.
func waitNoPersistConns(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for persistConns() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d net/http persistConn goroutines remain after Fleet.Stop", persistConns())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// persistConns counts the process's client keep-alive connections:
// each runs one net/http persistConn read loop.
func persistConns() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "net/http.(*persistConn).readLoop(")
		}
		buf = make([]byte, 2*len(buf))
	}
}
