// Command parccluster runs a supervised multi-node parcserve fleet
// behind a sharding router: N worker processes (this same binary
// re-exec'd in -worker mode) on localhost ports, consistent-hash
// sharding of job kinds, least-loaded spill on saturation, failover
// retry of idempotent jobs on node death (up to 3 further nodes per
// request), and juju-runner-style supervision of each node (restart with
// backoff; 5 exits within 30s retire the node).
//
// Usage:
//
//	parccluster -nodes 4                       # router on :8750, 4 workers
//	parccluster -nodes 2 -addr :9000 -node-max-concurrent 8
//	parccluster -nodes 2 -eventlog cluster-events.jsonl
//
// then drive it exactly like a single parcserve:
//
//	parcload -url http://localhost:8750 -n 500 -rate 200
//
// Router endpoints:
//
//	POST /jobs/{kind}          same surface as parcserve — submit a job
//	GET  /statz                cluster snapshot: nodes, shard map, ledger
//	GET  /healthz              router liveness
//	GET  /eventz               cluster event log (JSON lines)
//	POST /chaos/kill/{node}    abruptly kill a worker (it restarts with
//	                           backoff — the scripted chaos surface)
//
// On SIGINT/SIGTERM the fleet stops: workers drain politely, the event
// log is written (with -eventlog), and the exit code reports the ledger:
// non-zero if any accepted job was neither completed nor explicitly
// rejected — the no-lost-jobs contract, enforced at exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"parc751/internal/parccluster"
	"parc751/internal/parcserve"
)

func main() {
	var (
		nodes  = flag.Int("nodes", 2, "worker node count")
		addr   = flag.String("addr", ":8750", "router listen address")
		evLog  = flag.String("eventlog", "", "write the cluster event log (JSON lines) here on exit")
		resDel = flag.Duration("restart-delay", 200*time.Millisecond, "first backoff before a crashed node restarts")

		// Per-node sizing (both modes read these; the parent forwards them).
		nWorkers = flag.Int("node-workers", 0, "ptask pool size per node (0 = GOMAXPROCS)")
		nConc    = flag.Int("node-max-concurrent", 0, "jobs executing at once per node (0 = 2x workers)")
		nQueue   = flag.Int("node-max-queue", 0, "admission queue bound per node (0 = 4x max-concurrent)")

		// Worker mode (internal): run a single parcserve node.
		worker     = flag.Bool("worker", false, "internal: run as a worker node")
		workerAddr = flag.String("worker-addr", "", "internal: worker listen address")
		nodeID     = flag.String("node-id", "", "internal: worker identity")
	)
	flag.Parse()

	nodeCfg := parcserve.Config{
		Workers:       *nWorkers,
		MaxConcurrent: *nConc,
		MaxQueue:      *nQueue,
		DrainGrace:    200 * time.Millisecond,
	}

	if *worker {
		os.Exit(runWorker(*workerAddr, *nodeID, nodeCfg))
	}

	bin, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "parccluster: %v\n", err)
		os.Exit(1)
	}
	fleet := parccluster.NewFleet(parccluster.FleetConfig{
		Nodes: *nodes,
		Starter: &parccluster.ProcStarter{
			Bin:    bin,
			Stderr: os.Stderr,
			Extra: []string{
				"-node-workers", strconv.Itoa(*nWorkers),
				"-node-max-concurrent", strconv.Itoa(*nConc),
				"-node-max-queue", strconv.Itoa(*nQueue)},
		},
		Router:       parccluster.RouterConfig{LoadPollEvery: 250 * time.Millisecond},
		RestartDelay: *resDel,
	})
	if err := fleet.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "parccluster: %v\n", err)
		_ = fleet.Stop()
		os.Exit(1)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: fleet.Router()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("parccluster: router on %s fronting %d nodes\n", *addr, *nodes)
	for _, n := range fleet.Router().Nodes() {
		fmt.Printf("parccluster:   %s at %s\n", n.ID, n.URL)
	}

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "parccluster: %v\n", err)
		_ = fleet.Stop()
		os.Exit(1)
	case sig := <-sigCh:
		fmt.Printf("parccluster: %v — stopping fleet\n", sig)
	}
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "parccluster: forced exit")
		os.Exit(1)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "parccluster: http shutdown: %v\n", err)
	}
	_ = fleet.Stop()

	if *evLog != "" {
		f, err := os.Create(*evLog)
		if err == nil {
			_ = fleet.Events().WriteJSONL(f)
			_ = f.Close()
		} else {
			fmt.Fprintf(os.Stderr, "parccluster: eventlog: %v\n", err)
		}
	}

	led := fleet.Router().Ledger()
	fmt.Printf("parccluster: ledger accepted=%d completed=%d rejected=%d lost=%d spills=%d failovers=%d\n",
		led.Accepted, led.Completed, led.Rejected, led.Lost, led.Spills, led.Failovers)
	if led.Lost != 0 {
		fmt.Fprintf(os.Stderr, "parccluster: LEDGER IMBALANCE — %d accepted jobs neither completed nor rejected\n", led.Lost)
		os.Exit(1)
	}
	fmt.Println("parccluster: clean exit, no lost jobs")
}

// runWorker is the child-process mode: one parcserve node that drains
// on SIGTERM and exits 0 — the fleet reads any other exit as a crash.
func runWorker(addr, id string, cfg parcserve.Config) int {
	if addr == "" || id == "" {
		fmt.Fprintln(os.Stderr, "parccluster -worker: -worker-addr and -node-id are required")
		return 2
	}
	cfg.NodeID = id
	srv := parcserve.NewServer(cfg)
	httpSrv := &http.Server{Addr: addr, Handler: srv}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "parccluster worker %s: %v\n", id, err)
		return 1
	case <-sigCh:
	}
	if err := srv.Drain(30 * time.Second); err != nil {
		fmt.Fprintf(os.Stderr, "parccluster worker %s: drain: %v\n", id, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(ctx)
	return 0
}
