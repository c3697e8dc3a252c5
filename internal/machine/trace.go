package machine

import (
	"fmt"
	"sort"
	"strings"
)

// Span is one executed task interval on a virtual processor.
type Span struct {
	Proc   int
	Start  uint64
	End    uint64
	Stolen bool // acquired by stealing rather than from the own deque
}

// Trace records the schedule a simulation produced, enabling the Gantt
// rendering used to teach scheduling behaviour (idle bubbles, steal
// migration, stragglers).
type Trace struct {
	Procs int
	Spans []Span
}

// EnableTrace turns on span recording for this machine. Call before Run.
func (m *Machine) EnableTrace() {
	m.trace = &Trace{Procs: m.cfg.Procs}
}

// Trace returns the recorded trace (nil unless EnableTrace was called).
func (m *Machine) Trace() *Trace { return m.trace }

// Gantt renders an ASCII Gantt chart with the given width in columns.
// '#' marks own work, 'S' stolen work, '.' idle.
func (t *Trace) Gantt(width int) string {
	if width < 10 {
		width = 10
	}
	var makespan uint64
	for _, s := range t.Spans {
		if s.End > makespan {
			makespan = s.End
		}
	}
	if makespan == 0 {
		return "(empty trace)\n"
	}
	rows := make([][]byte, t.Procs)
	for p := range rows {
		rows[p] = []byte(strings.Repeat(".", width))
	}
	spans := append([]Span(nil), t.Spans...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for _, s := range spans {
		lo := int(s.Start * uint64(width) / makespan)
		hi := int(s.End * uint64(width) / makespan)
		if hi == lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		mark := byte('#')
		if s.Stolen {
			mark = 'S'
		}
		for c := lo; c < hi; c++ {
			rows[s.Proc][c] = mark
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Gantt (makespan %d virtual ns; # own, S stolen, . idle)\n", makespan)
	for p, row := range rows {
		fmt.Fprintf(&b, "p%02d |%s|\n", p, row)
	}
	return b.String()
}
