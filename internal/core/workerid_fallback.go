//go:build (!amd64 && !arm64 && !386) || parc_stackid

package core

import (
	"bytes"
	"runtime"
	"sync"
)

// stackBufs recycles GoroutineKey's header buffers: runtime.Stack keeps
// its argument on the heap, and a fresh buffer per lookup would break the
// pool's zero-allocation Submit.
var stackBufs = sync.Pool{New: func() any { return new([64]byte) }}

// GoroutineKey identifies the calling goroutine: never 0, distinct
// between live goroutines, and stable for the goroutine's lifetime. On
// architectures without a getg stub, and on every architecture under
// the parc_stackid build tag, it is the goroutine id parsed from the
// runtime.Stack header ("goroutine N [running]: ..."). It costs
// microseconds per call, against nanoseconds for getg, but it is
// stdlib-only, allocation-free once warm, and correct everywhere. Ids
// are never reused, so a dead worker's key can never match a live
// goroutine.
func GoroutineKey() uint64 {
	buf := stackBufs.Get().(*[64]byte)
	defer stackBufs.Put(buf)
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	var id uint64
	n := 0
	for ; n < len(b) && '0' <= b[n] && b[n] <= '9'; n++ {
		id = id*10 + uint64(b[n]-'0')
	}
	if n == 0 {
		// Every goroutine would share one key and pass for a worker.
		panic("core: cannot parse the goroutine id from runtime.Stack")
	}
	return id
}
