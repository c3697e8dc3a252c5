package course

import (
	"fmt"
	"sort"

	"parc751/internal/xrand"
)

// Group is one project group in the doodle poll.
type Group struct {
	ID      int
	Arrival int   // poll submission order (lower = earlier); unique
	Prefs   []int // topic indices in preference order
}

// PollConfig describes the §III-D allocation: 10 topics, each with room
// for 2 groups, allocated strictly first-in-first-served.
type PollConfig struct {
	Topics         int
	GroupsPerTopic int
}

// DefaultPoll returns the paper's configuration: 10 topics x 2 groups.
func DefaultPoll() PollConfig { return PollConfig{Topics: 10, GroupsPerTopic: 2} }

// Capacity returns the total number of groups the poll can place.
//
//parcvet:ignore unused course course poll capacity the allocation exercise reports
func (p PollConfig) Capacity() int { return p.Topics * p.GroupsPerTopic }

// Allocation is the poll outcome.
type Allocation struct {
	// TopicOf maps group ID to its topic (absent if unplaced).
	TopicOf map[int]int
	// GroupsOn maps topic to the group IDs placed on it, in arrival order.
	GroupsOn map[int][]int
	// Unplaced lists group IDs that exhausted their preferences.
	Unplaced []int
}

// Allocate runs the first-in-first-served doodle poll: groups are
// processed in arrival order and each receives the highest-preference
// topic that still has capacity. The paper reports this "worked extremely
// well, minimising administration involvement" — the tests verify its
// fairness properties (every group placed when preferences are complete,
// capacity never exceeded, earlier arrivals never lose a topic to later
// ones).
func Allocate(cfg PollConfig, groups []Group) Allocation {
	byArrival := append([]Group(nil), groups...)
	sort.Slice(byArrival, func(i, j int) bool { return byArrival[i].Arrival < byArrival[j].Arrival })
	remaining := make([]int, cfg.Topics)
	for i := range remaining {
		remaining[i] = cfg.GroupsPerTopic
	}
	out := Allocation{TopicOf: map[int]int{}, GroupsOn: map[int][]int{}}
	for _, g := range byArrival {
		placed := false
		for _, t := range g.Prefs {
			if t < 0 || t >= cfg.Topics {
				continue
			}
			if remaining[t] > 0 {
				remaining[t]--
				out.TopicOf[g.ID] = t
				out.GroupsOn[t] = append(out.GroupsOn[t], g.ID)
				placed = true
				break
			}
		}
		if !placed {
			out.Unplaced = append(out.Unplaced, g.ID)
		}
	}
	return out
}

// FormGroups splits a cohort of n students into groups of the given size
// (the last group may be smaller), assigning arrival order pseudo-randomly
// — the poll-release scramble. It returns groups with full preference
// lists generated with popularity skew, modelling "some project topics had
// higher preference than others" (§III-D).
func FormGroups(seed uint64, students, size int, cfg PollConfig) []Group {
	if size < 1 {
		size = 1
	}
	n := (students + size - 1) / size
	r := xrand.New(seed)
	arrivals := r.Perm(n)
	groups := make([]Group, n)
	zipf := xrand.NewZipfGen(r, cfg.Topics, 0.8)
	for i := range groups {
		groups[i] = Group{
			ID:      i,
			Arrival: arrivals[i],
			Prefs:   skewedPrefs(r, zipf, cfg.Topics),
		}
	}
	return groups
}

// skewedPrefs produces a full ranking of all topics where popular topics
// (low Zipf rank) tend to appear early.
func skewedPrefs(r *xrand.Rand, zipf *xrand.ZipfGen, topics int) []int {
	used := make([]bool, topics)
	prefs := make([]int, 0, topics)
	for len(prefs) < topics {
		t := zipf.Next()
		if !used[t] {
			used[t] = true
			prefs = append(prefs, t)
			continue
		}
		// Collision: take the next unused topic cyclically, which keeps
		// the ranking complete without biasing the head.
		for d := 1; d < topics; d++ {
			c := (t + d) % topics
			if !used[c] {
				used[c] = true
				prefs = append(prefs, c)
				break
			}
		}
	}
	return prefs
}

// Satisfaction returns the average preference rank groups received
// (1 = everyone got their first choice). Unplaced groups count as
// cfg.Topics+1.
func Satisfaction(cfg PollConfig, groups []Group, a Allocation) float64 {
	if len(groups) == 0 {
		return 0
	}
	total := 0
	for _, g := range groups {
		t, ok := a.TopicOf[g.ID]
		if !ok {
			total += cfg.Topics + 1
			continue
		}
		for rank, p := range g.Prefs {
			if p == t {
				total += rank + 1
				break
			}
		}
	}
	return float64(total) / float64(len(groups))
}

// String renders an allocation summary.
func (a Allocation) String() string {
	return fmt.Sprintf("placed=%d unplaced=%d topics=%d", len(a.TopicOf), len(a.Unplaced), len(a.GroupsOn))
}
