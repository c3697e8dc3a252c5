package course

import (
	"fmt"
	"sort"
)

// The §III-C seminar mechanics: from weeks 7 to 10, groups present during
// standard lecture slots; each lecture fits two 20-minute presentations
// (+5 minutes of questions), and groups self-schedule through a
// first-in-first-served doodle poll. Groups presenting early are assessed
// on conveying their topic, not on progress.

// SeminarSlot is one presentation slot inside a lecture.
type SeminarSlot struct {
	Week    int // teaching week 7..10
	Lecture int // lecture index within the week (0-based)
	Half    int // 0 = first 25 minutes, 1 = second
}

// String renders the slot.
func (s SeminarSlot) String() string {
	return fmt.Sprintf("week %d, lecture %d, slot %d", s.Week, s.Lecture, s.Half)
}

// SeminarCalendar returns the available slots: lecturesPerWeek lectures in
// each of weeks 7-10, two presentations per lecture, in chronological
// order.
func SeminarCalendar(lecturesPerWeek int) []SeminarSlot {
	if lecturesPerWeek < 1 {
		lecturesPerWeek = 1
	}
	var out []SeminarSlot
	for week := 7; week <= 10; week++ {
		for lec := 0; lec < lecturesPerWeek; lec++ {
			for half := 0; half < 2; half++ {
				out = append(out, SeminarSlot{Week: week, Lecture: lec, Half: half})
			}
		}
	}
	return out
}

// SlotRequest is one group's poll submission: arrival order plus the slot
// indices (into the calendar) it would accept, in preference order.
type SlotRequest struct {
	GroupID int
	Arrival int
	Prefs   []int
}

// SeminarSchedule maps group IDs to slot indices.
type SeminarSchedule struct {
	Slots      []SeminarSlot
	SlotOf     map[int]int // group -> slot index
	Unassigned []int
}

// ScheduleSeminars runs the first-in-first-served slot poll: requests are
// processed in arrival order, each group takes its most-preferred free
// slot. Groups whose acceptable slots are all taken go unassigned (in
// practice the instructors would intervene; the tests check this cannot
// happen when groups accept all slots and capacity suffices).
func ScheduleSeminars(slots []SeminarSlot, reqs []SlotRequest) SeminarSchedule {
	byArrival := append([]SlotRequest(nil), reqs...)
	sort.Slice(byArrival, func(i, j int) bool { return byArrival[i].Arrival < byArrival[j].Arrival })
	taken := make([]bool, len(slots))
	out := SeminarSchedule{Slots: slots, SlotOf: map[int]int{}}
	for _, r := range byArrival {
		placed := false
		for _, s := range r.Prefs {
			if s < 0 || s >= len(slots) || taken[s] {
				continue
			}
			taken[s] = true
			out.SlotOf[r.GroupID] = s
			placed = true
			break
		}
		if !placed {
			out.Unassigned = append(out.Unassigned, r.GroupID)
		}
	}
	return out
}

// AllSlotsPrefs is the "any slot is fine" preference list: every slot in
// chronological order — late submitters end up presenting later, which is
// exactly the dynamic the paper describes (earlier presenters are not
// penalised for less progress).
func AllSlotsPrefs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// PresentationOrder returns group IDs in chronological slot order.
func (s SeminarSchedule) PresentationOrder() []int {
	type pair struct{ group, slot int }
	var ps []pair
	for g, idx := range s.SlotOf {
		ps = append(ps, pair{g, idx})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].slot < ps[j].slot })
	out := make([]int, len(ps))
	for i, p := range ps {
		out[i] = p.group
	}
	return out
}

// WeeksUsed reports how many distinct weeks host at least one seminar.
//
//parcvet:ignore unused course seminar schedule summary
func (s SeminarSchedule) WeeksUsed() int {
	weeks := map[int]bool{}
	for _, idx := range s.SlotOf {
		weeks[s.Slots[idx].Week] = true
	}
	return len(weeks)
}
