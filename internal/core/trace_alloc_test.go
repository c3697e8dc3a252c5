//go:build !race

// Allocation guard for the recording-enabled path: Record is a fetch-add
// claim plus atomic stores into preallocated slots, so even with a
// recorder attached the Submit→run cycle must stay heap-free. (The
// detached path is covered by TestSubmitZeroAlloc, which now runs with
// the trace hooks compiled in.) Excluded under -race for the same reason
// as alloc_guard_test.go: the race runtime allocates on its own.

package core

import (
	"testing"

	"parc751/internal/parctrace"
)

func TestSubmitZeroAllocWhileRecording(t *testing.T) {
	attach(t, parctrace.NewRecorder(parctrace.Config{Workers: 4, LaneCap: 256}))
	p := NewPool(4)
	defer p.Shutdown()
	done := make(chan struct{}, 1)
	fn := func() { done <- struct{}{} }
	// Warm past the rings' first wrap so the steady state includes the
	// sampling branch, not just the fill phase.
	for i := 0; i < 512; i++ {
		p.Submit(fn)
		<-done
	}
	if got := testing.AllocsPerRun(100, func() {
		p.Submit(fn)
		<-done
	}); got != 0 {
		t.Fatalf("recording Submit→run cycle allocates %v objects/op, want 0", got)
	}
}
