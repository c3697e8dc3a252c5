package parccluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"parc751/internal/parcserve"
)

// NodeHandle is one live worker-node incarnation. Kill is abrupt death
// (the chaos path: connections reset, in-flight jobs lost from the
// cluster's point of view); Shutdown is the polite path (readiness
// flips, drain, exit). Wait blocks until the incarnation is gone and
// returns nil only for a clean exit; the fleet logs the error as the
// node-exit detail.
type NodeHandle interface {
	URL() string
	Kill() error
	Shutdown() error
	Wait() error
}

// NodeStarter creates node incarnations. The fleet calls Start again on
// every supervised restart.
type NodeStarter interface {
	Start(id string) (NodeHandle, error)
}

// errKilled is what a killed incarnation's Wait returns — a crash to
// the fleet, which restarts the node with backoff.
var errKilled = errors.New("parccluster: node killed")

// ---------------------------------------------------------------------
// LocalStarter: in-process nodes. Each node is a full parcserve.Server
// with its own runtime pool behind its own TCP listener on 127.0.0.1 —
// real HTTP between router and node, everything else hermetic. Tests
// and the A11 ablation use this; cmd/parccluster uses ProcStarter.

// LocalStarter starts in-process parcserve nodes.
type LocalStarter struct {
	// Config is the per-node template; NodeID is overridden per node.
	Config parcserve.Config
}

// Start implements NodeStarter.
func (s *LocalStarter) Start(id string) (NodeHandle, error) {
	cfg := s.Config
	cfg.NodeID = id
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := parcserve.NewServer(cfg)
	n := &localNode{
		srv:  srv,
		hs:   &http.Server{Handler: srv},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		_ = n.hs.Serve(ln)
		close(n.done)
	}()
	return n, nil
}

type localNode struct {
	srv      *parcserve.Server
	hs       *http.Server
	url      string
	done     chan struct{}
	graceful atomic.Bool
	stopOnce sync.Once
}

func (n *localNode) URL() string { return n.url }

// Kill is an abrupt death: listener and live connections close
// immediately (clients see a reset mid-request), then the orphaned
// runtime pool is reaped in the background — invisible to the cluster,
// which already watched the node die.
func (n *localNode) Kill() error {
	var err error
	n.stopOnce.Do(func() {
		err = n.hs.Close()
		go func() { _ = n.srv.Drain(5 * time.Second) }()
	})
	return err
}

// Shutdown is the polite path: parcserve drain (readiness flip, grace,
// intake close, job flush, pool stop), then the HTTP server.
func (n *localNode) Shutdown() error {
	var err error
	n.stopOnce.Do(func() {
		n.graceful.Store(true)
		err = n.srv.Drain(30 * time.Second)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		serr := n.hs.Shutdown(ctx)
		if err == nil {
			err = serr
		}
	})
	return err
}

func (n *localNode) Wait() error {
	<-n.done
	if n.graceful.Load() {
		return nil
	}
	return errKilled
}

// ---------------------------------------------------------------------
// ProcStarter: real separate processes. The production shape — the
// router's failure model (connection reset on node death) is exactly
// the OS's, not a simulation.

// ProcStarter spawns each node as a child process (normally the
// parccluster binary re-exec'd in -worker mode).
type ProcStarter struct {
	// Bin is the executable to run.
	Bin string
	// Args builds the argv (after Bin) for a node with the given id
	// listening on addr. Default: ["-worker", "-worker-addr", addr,
	// "-node-id", id].
	Args func(id, addr string) []string
	// Stdout/Stderr receive the child's output (default: discarded).
	Stdout, Stderr io.Writer
}

// Start implements NodeStarter: picks a free localhost port, spawns the
// worker on it, and returns once the process is running (readiness is
// the fleet's job).
func (s *ProcStarter) Start(id string) (NodeHandle, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	_ = ln.Close() // tiny window; the child rebinds the same port
	args := []string{"-worker", "-worker-addr", addr, "-node-id", id}
	if s.Args != nil {
		args = s.Args(id, addr)
	}
	cmd := exec.Command(s.Bin, args...)
	cmd.Stdout = s.Stdout
	cmd.Stderr = s.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("parccluster: starting node %s: %w", id, err)
	}
	n := &procNode{cmd: cmd, url: "http://" + addr, done: make(chan struct{})}
	go func() {
		n.waitErr = cmd.Wait()
		close(n.done)
	}()
	return n, nil
}

type procNode struct {
	cmd      *exec.Cmd
	url      string
	done     chan struct{}
	waitErr  error
	graceful atomic.Bool
}

func (n *procNode) URL() string { return n.url }

func (n *procNode) Kill() error {
	return n.cmd.Process.Kill()
}

// Shutdown sends SIGTERM (the worker drains and exits 0) and escalates
// to SIGKILL if the child lingers past its budget.
func (n *procNode) Shutdown() error {
	n.graceful.Store(true)
	if err := n.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-n.done:
		return nil
	case <-time.After(45 * time.Second):
		return n.cmd.Process.Kill()
	}
}

func (n *procNode) Wait() error {
	<-n.done
	if n.graceful.Load() && n.waitErr == nil {
		return nil
	}
	if n.waitErr == nil {
		// Exited zero without being asked: still a supervision event —
		// a worker has no business exiting on its own.
		return errors.New("parccluster: node exited unexpectedly")
	}
	return fmt.Errorf("%w: %v", errKilled, n.waitErr)
}
