//go:build (amd64 || arm64 || 386) && !parc_stackid

package core

// getg returns the address of the calling goroutine's runtime g struct:
// a few instructions of assembly (getg_amd64.s, getg_arm64.s,
// getg_386.s) that read the register or TLS slot the runtime keeps it
// in. It is GoroutineKey on these architectures, unless the
// parc_stackid build tag forces the runtime.Stack fallback
// (workerid_fallback.go). A g is never moved, and it is only reused for
// a new goroutine after the old one exits; workers unbind before they
// exit, so a reused g never matches a dead worker.
func getg() uintptr

// GoroutineKey identifies the calling goroutine: never 0, distinct
// between live goroutines, and stable for the goroutine's lifetime. A
// key may be reused once its goroutine has exited, so an owner that
// stores one must clear it before the goroutine exits.
func GoroutineKey() uint64 { return uint64(getg()) }
