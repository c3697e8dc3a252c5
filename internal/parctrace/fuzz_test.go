package parctrace

import (
	"bytes"
	"io"
	"testing"

	"parc751/internal/probe"
)

// FuzzTraceCodec feeds arbitrary bytes through the dump codec: ReadDump
// must reject garbage with an error (never panic), and anything it
// accepts must survive Write→Read losslessly, keep a stable canonical
// projection, and render through both viewers without panicking — the
// parser is the trust boundary for traces loaded off disk.
func FuzzTraceCodec(f *testing.F) {
	var golden bytes.Buffer
	if err := WriteDump(&golden, goldenDump()); err != nil {
		f.Fatal(err)
	}
	f.Add(golden.Bytes())
	f.Add([]byte(`{"schema":"parc751/trace/v1","counts":{},"events":[]}`))
	f.Add([]byte(`{"schema":"parc751/trace/v0"}`))
	f.Add([]byte(`{"schema":"parc751/trace/v1","events":[{"kind":"nope"}]}`))
	f.Add([]byte("{"))
	f.Add([]byte(`{"schema":"parc751/trace/v1","workers":-1,"counts":{},"events":[]}`))
	f.Add([]byte(`{"schema":"parc751/trace/v1","workers":2000000000,"counts":{},"events":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDump(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteDump(&buf, d); err != nil {
			t.Fatalf("WriteDump on accepted dump: %v", err)
		}
		back, err := ReadDump(buf.Bytes())
		if err != nil {
			t.Fatalf("own output rejected: %v", err)
		}
		if !bytes.Equal(d.Canonical(), back.Canonical()) {
			t.Fatalf("canonical projection drifted across round trip")
		}
		if err := RenderHTML(io.Discard, d); err != nil {
			t.Fatalf("RenderHTML: %v", err)
		}
		_ = RenderASCII(d, 80)
	})
}

// FuzzRingOps replays an arbitrary op sequence against a sequential
// model of the ring. Single-writer, every claim publishes, so the model
// is exact: after k claims on a ring of capacity c, the snapshot window
// is the last min(k, c) events in claim order and lost == max(0, k-c).
// Interleaved snapshots must each satisfy the same invariant.
func FuzzRingOps(f *testing.F) {
	f.Add([]byte{4, 1, 1, 1, 0, 1, 1})
	f.Add([]byte{1, 1, 1})
	f.Add([]byte{7, 0})
	f.Add(bytes.Repeat([]byte{1}, 200))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		// First byte sizes the ring (bounded); the rest alternate between
		// a write (odd) and a snapshot check (even).
		r := newRing(int(ops[0]%64) + 1)
		c := r.capacity()
		var claims uint64
		check := func() {
			evs, lost := r.snapshot()
			var wantLost uint64
			if claims > c {
				wantLost = claims - c
			}
			if lost != wantLost {
				t.Fatalf("after %d claims (cap %d): lost = %d, want %d", claims, c, lost, wantLost)
			}
			if uint64(len(evs))+lost != claims {
				t.Fatalf("conservation: %d read + %d lost != %d claims", len(evs), lost, claims)
			}
			for i, ev := range evs {
				if want := claims - uint64(len(evs)) + uint64(i); ev.Task != want {
					t.Fatalf("window[%d].Task = %d, want %d", i, ev.Task, want)
				}
			}
		}
		for _, op := range ops[1:] {
			if op%2 == 1 {
				if !r.write(Event{Kind: probe.Site(op % uint8(probe.NumSites)), Task: claims}) {
					t.Fatalf("sequential write %d dropped", claims)
				}
				claims++
			} else {
				check()
			}
		}
		check()
	})
}
