package machine

import (
	"strings"
	"testing"
)

func TestTraceRecordsSpans(t *testing.T) {
	m := New(refConfig(4))
	m.EnableTrace()
	for i := 0; i < 16; i++ {
		m.Submit(0, 1000, nil)
	}
	st := m.Run()
	tr := m.Trace()
	if tr == nil {
		t.Fatal("no trace")
	}
	if len(tr.Spans) != 16 {
		t.Fatalf("spans = %d, want 16", len(tr.Spans))
	}
	var busy uint64
	for _, s := range tr.Spans {
		if s.End <= s.Start {
			t.Fatalf("empty span %+v", s)
		}
		if s.Proc < 0 || s.Proc >= 4 {
			t.Fatalf("span proc %d", s.Proc)
		}
		busy += s.End - s.Start
	}
	if busy != st.BusyNs {
		t.Fatalf("trace busy %d != stats busy %d", busy, st.BusyNs)
	}
}

func TestTraceStealsMatchStats(t *testing.T) {
	m := New(refConfig(4))
	m.EnableTrace()
	for i := 0; i < 32; i++ {
		m.Submit(0, 500, nil) // all on proc 0: others must steal
	}
	st := m.Run()
	var stolen int64
	for _, s := range m.Trace().Spans {
		if s.Stolen {
			stolen++
		}
	}
	if stolen != st.Steals {
		t.Fatalf("trace steals %d != stats steals %d", stolen, st.Steals)
	}
	if st.Steals == 0 {
		t.Fatal("expected steals")
	}
}

func TestBusyPerProc(t *testing.T) {
	m := New(refConfig(2))
	m.EnableTrace()
	for i := 0; i < 8; i++ {
		m.Submit(i, 100, nil)
	}
	m.Run()
	busy := make([]uint64, 2)
	for _, s := range m.Trace().Spans {
		busy[s.Proc] += s.End - s.Start
	}
	if len(busy) != 2 {
		t.Fatalf("per-proc entries = %d", len(busy))
	}
	if busy[0]+busy[1] != 800 {
		t.Fatalf("total busy = %d", busy[0]+busy[1])
	}
}

func TestGanttRendering(t *testing.T) {
	m := New(refConfig(3))
	m.EnableTrace()
	for i := 0; i < 9; i++ {
		m.Submit(0, 1000, nil)
	}
	m.Run()
	g := m.Trace().Gantt(40)
	if !strings.Contains(g, "p00") || !strings.Contains(g, "p02") {
		t.Fatalf("gantt missing processor rows:\n%s", g)
	}
	if !strings.Contains(g, "#") {
		t.Fatalf("gantt shows no work:\n%s", g)
	}
	if !strings.Contains(g, "S") {
		t.Fatalf("gantt shows no steals despite proc-0 seeding:\n%s", g)
	}
	lines := strings.Split(strings.TrimSpace(g), "\n")
	if len(lines) != 4 { // header + 3 procs
		t.Fatalf("gantt line count = %d:\n%s", len(lines), g)
	}
}

func TestGanttEmptyTrace(t *testing.T) {
	tr := &Trace{Procs: 2}
	if !strings.Contains(tr.Gantt(20), "empty") {
		t.Fatal("empty trace not reported")
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
