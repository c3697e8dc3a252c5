// Command parcserve runs the job-serving front end over the parallel
// runtime: an HTTP service executing the course workloads (sort,
// text/PDF search, thumbnails, matmul, webfetch) with admission control,
// per-job deadlines, and graceful drain on SIGINT.
// A job runs under its request's deadline_ms, or 10s when it names none;
// no request may ask for more than 1m. Kernel jobs run Pyjama teams of
// -workers threads.
//
// Usage:
//
//	parcserve                         # listen on :8751 with defaults
//	parcserve -addr :9000 -workers 8
//	parcserve -max-concurrent 16 -max-queue 64
//
// Endpoints:
//
//	POST /jobs/{kind}   submit a job (kinds: sort, textsearch, pdfsearch,
//	                    thumbs, matmul, webfetch, spin)
//	GET  /statz         runtime observability snapshot (JSON, incl. node_id)
//	GET  /healthz       liveness (always 200 while the process serves)
//	GET  /readyz        readiness (503 from the moment drain begins)
//
// On SIGINT/SIGTERM the server drains: intake answers 503, in-flight
// jobs finish, then the worker pool stops. A second
// signal exits immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parc751/internal/parcserve"
)

func main() {
	var (
		addr    = flag.String("addr", ":8751", "listen address")
		workers = flag.Int("workers", 0, "ptask pool size and kernel-job Pyjama team size (0 = GOMAXPROCS)")
		maxConc = flag.Int("max-concurrent", 0, "jobs executing at once (0 = 2x workers)")
		maxQ    = flag.Int("max-queue", 0, "jobs waiting for a slot before 429 (0 = 4x max-concurrent)")
		drainD  = flag.Duration("drain", 30*time.Second, "graceful-drain budget on shutdown")
		nodeID  = flag.String("node-id", "", "node identity reported by /statz, /healthz, /readyz (default \"solo\")")
		graceD  = flag.Duration("drain-grace", 500*time.Millisecond, "how long /readyz flips 503 before intake closes on drain")
	)
	flag.Parse()

	srv := parcserve.NewServer(parcserve.Config{
		Workers:       *workers,
		MaxConcurrent: *maxConc,
		MaxQueue:      *maxQ,
		NodeID:        *nodeID,
		DrainGrace:    *graceD,
	})

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("parcserve: listening on %s (kinds: %v)\n", *addr, parcserve.Kinds())

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "parcserve: %v\n", err)
		os.Exit(1)
	case sig := <-sigCh:
		fmt.Printf("parcserve: %v — draining (budget %v, signal again to force exit)\n", sig, *drainD)
	}

	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "parcserve: forced exit")
		os.Exit(1)
	}()

	// Drain order: stop accepting at the job layer first (503s carry
	// Connection: close), let in-flight jobs finish, then close the
	// listener.
	if err := srv.Drain(*drainD); err != nil {
		fmt.Fprintf(os.Stderr, "parcserve: drain: %v\n", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "parcserve: http shutdown: %v\n", err)
	}
	fmt.Println("parcserve: drained")
}
