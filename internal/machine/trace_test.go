package machine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"parc751/internal/parctrace"
	"parc751/internal/probe"
)

// busyByProc pairs each run with its complete by task id and returns the
// executed time per processor. Both events of a task must sit on one
// processor, in order, and every run must complete.
func busyByProc(t *testing.T, d *parctrace.Dump) []uint64 {
	t.Helper()
	busy := make([]uint64, d.Workers)
	running := map[uint64]parctrace.Event{}
	for _, ev := range d.Events {
		if ev.Worker < 0 || int(ev.Worker) >= d.Workers {
			t.Fatalf("event on proc %d of %d: %+v", ev.Worker, d.Workers, ev)
		}
		switch ev.Kind {
		case probe.SiteRun:
			running[ev.Task] = ev
		case probe.SiteComplete:
			run, ok := running[ev.Task]
			if !ok || run.Worker != ev.Worker || ev.TNs <= run.TNs {
				t.Fatalf("complete %+v does not close run %+v", ev, run)
			}
			busy[ev.Worker] += uint64(ev.TNs - run.TNs)
			delete(running, ev.Task)
		}
	}
	if len(running) != 0 {
		t.Fatalf("%d runs never completed", len(running))
	}
	return busy
}

func count(d *parctrace.Dump, k probe.Site) int64 {
	var n int64
	for _, ev := range d.Events {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

// rows returns the schedule rows of an ASCII rendering, one per worker.
func rows(ascii string) []string {
	var out []string
	for _, ln := range strings.Split(ascii, "\n") {
		if strings.HasPrefix(ln, "w") {
			out = append(out, ln[strings.IndexByte(ln, '|')+1:len(ln)-1])
		}
	}
	return out
}

func TestTraceRecordsSpans(t *testing.T) {
	m := New(refConfig(4))
	m.EnableTrace()
	for i := 0; i < 16; i++ {
		m.Submit(0, 1000, nil)
	}
	st := m.Run()
	d := m.Trace()
	if d == nil {
		t.Fatal("no trace")
	}
	if n := count(d, probe.SiteComplete); n != st.Spawns || n != 16 {
		t.Fatalf("complete events = %d, Spawns = %d, want 16", n, st.Spawns)
	}
	var total uint64
	for _, b := range busyByProc(t, d) {
		total += b
	}
	if total != st.BusyNs {
		t.Fatalf("trace busy %d != stats busy %d", total, st.BusyNs)
	}
	if d.Recorded != uint64(len(d.Events)) || d.Counts["run"] != 16 || d.Counts["complete"] != 16 {
		t.Fatalf("accounting: recorded %d of %d events, counts %v", d.Recorded, len(d.Events), d.Counts)
	}
}

func TestTraceStealsMatchStats(t *testing.T) {
	m := New(refConfig(4))
	m.EnableTrace()
	for i := 0; i < 32; i++ {
		m.Submit(0, 500, nil) // all on proc 0: others must steal
	}
	st := m.Run()
	if stolen := count(m.Trace(), probe.SiteSteal); stolen != st.Steals {
		t.Fatalf("trace steals %d != stats steals %d", stolen, st.Steals)
	}
	if st.Steals == 0 {
		t.Fatal("expected steals")
	}
	for _, ev := range m.Trace().Events {
		if ev.Kind == probe.SiteSteal && (ev.Aux != 0 || ev.Worker == 0) {
			t.Fatalf("steal %+v: only proc 0 has work to steal, and not from itself", ev)
		}
	}
}

func TestBusyPerProc(t *testing.T) {
	m := New(refConfig(2))
	m.EnableTrace()
	for i := 0; i < 8; i++ {
		m.Submit(i, 100, nil)
	}
	st := m.Run()
	busy := busyByProc(t, m.Trace())
	if busy[0] != 400 || busy[1] != 400 || busy[0]+busy[1] != st.BusyNs {
		t.Fatalf("per-proc busy = %v, stats busy %d", busy, st.BusyNs)
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	m := New(refConfig(1))
	m.Submit(0, 10, nil)
	m.Run()
	if m.Trace() != nil {
		t.Fatal("trace enabled without EnableTrace")
	}
}

// TestTraceDumpDeterministic: the simulator is deterministic, so two
// runs of one configuration write the same dump byte for byte, and the
// dump reads back as a valid v1 trace in time order.
func TestTraceDumpDeterministic(t *testing.T) {
	dump := func() []byte {
		m := New(PARC8())
		m.EnableTrace()
		for i := 0; i < 4; i++ {
			m.Submit(0, 2000, func(c *Ctx) {
				for j := 0; j < 8; j++ {
					c.Spawn(uint64(300+100*j), nil)
				}
			})
		}
		m.Run()
		var buf bytes.Buffer
		if err := parctrace.WriteDump(&buf, m.Trace()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := dump(), dump()
	if !bytes.Equal(a, b) {
		t.Fatal("two runs of one config wrote different dumps")
	}
	d, err := parctrace.ReadDump(a)
	if err != nil {
		t.Fatalf("ReadDump: %v", err)
	}
	if d.Name != "parc8" || d.Workers != 8 || d.Counts["complete"] != 36 || d.Counts["steal"] == 0 {
		t.Fatalf("dump header: name %q, %d workers, counts %v", d.Name, d.Workers, d.Counts)
	}
	for i := 1; i < len(d.Events); i++ {
		if d.Events[i].TNs < d.Events[i-1].TNs {
			t.Fatalf("event %d at %d precedes event %d at %d", i, d.Events[i].TNs, i-1, d.Events[i-1].TNs)
		}
	}
}

func TestGanttRendering(t *testing.T) {
	m := New(refConfig(3))
	m.EnableTrace()
	for i := 0; i < 9; i++ {
		m.Submit(0, 1000, nil)
	}
	m.Run()
	g := parctrace.RenderASCII(m.Trace(), 40)
	if !strings.Contains(g, "\nw0 ") || !strings.Contains(g, "\nw2 ") {
		t.Fatalf("missing processor rows:\n%s", g)
	}
	r := rows(g)
	if len(r) != 3 {
		t.Fatalf("row count = %d:\n%s", len(r), g)
	}
	if !strings.Contains(r[0], "#") {
		t.Fatalf("shows no work:\n%s", g)
	}
	if !strings.Contains(r[1]+r[2], "S") {
		t.Fatalf("shows no steals despite proc-0 seeding:\n%s", g)
	}
}

// TestTraceRendersIdleProcs: a processor that never ran a task still
// gets its row.
func TestTraceRendersIdleProcs(t *testing.T) {
	m := New(refConfig(8))
	m.EnableTrace()
	m.Submit(0, 1000, nil)
	m.Submit(1, 1000, nil)
	m.Run()
	g := parctrace.RenderASCII(m.Trace(), 40)
	if r := rows(g); len(r) != 8 || strings.Contains(r[7], "#") {
		t.Fatalf("want 8 rows, the last idle:\n%s", g)
	}
}

// TestTraceRendersWholeSchedule: racelab's largest request renders from
// its first instant to its last, not only the tail of its events.
func TestTraceRendersWholeSchedule(t *testing.T) {
	m := New(Config{Name: "big", Procs: 64, SpeedFactor: 1, StealLatency: 400})
	m.EnableTrace()
	for i := 0; i < 4096; i++ {
		m.Submit(0, uint64(500+137*(i%7)), nil)
	}
	st := m.Run()
	g := parctrace.RenderASCII(m.Trace(), 72)
	if want := fmt.Sprintf("window %v\n", time.Duration(st.Makespan)); !strings.Contains(g, want) {
		t.Fatalf("header lacks %q:\n%s", want, g[:strings.IndexByte(g, '\n')])
	}
	r := rows(g)
	if len(r) != 64 {
		t.Fatalf("row count = %d", len(r))
	}
	if r[0][0] != '#' {
		t.Fatalf("proc 0 idle in the first column: %s", r[0])
	}
	last := false
	for _, row := range r {
		last = last || row[len(row)-1] == '#'
	}
	if !last {
		t.Fatal("no work in the last column")
	}
}

func TestGanttEmptyTrace(t *testing.T) {
	m := New(refConfig(2))
	m.EnableTrace()
	m.Run()
	if g := parctrace.RenderASCII(m.Trace(), 20); !strings.Contains(g, "(no events)") {
		t.Fatalf("empty schedule not reported:\n%s", g)
	}
}
