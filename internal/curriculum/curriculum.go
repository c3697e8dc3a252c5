// Package curriculum models the teaching content of SoftEng 751's first
// five weeks. §II of the paper states the core-concept selection "supports
// those programming topics proposed by the NSF/IEEE-TCPP Curriculum
// Initiative on Parallel & Distributed Computing as being most vital",
// under the Fall 2012 Early Adopter programme. This package records that
// alignment as data — each taught topic mapped to the teaching week and to
// the runnable artifact in this repository that demonstrates it — and
// implements the analytic speedup laws (Amdahl, Gustafson) that anchor the
// lectures, which the tests cross-validate against the simulated machine.
package curriculum

import (
	"fmt"
	"sort"
)

// BloomLevel is the depth of mastery the TCPP curriculum assigns a topic.
type BloomLevel int

// The TCPP initiative's Bloom levels.
const (
	Know       BloomLevel = iota // K: know the term
	Comprehend                   // C: paraphrase/illustrate
	Apply                        // A: use in a program
)

// String names the level.
func (b BloomLevel) String() string {
	switch b {
	case Know:
		return "K"
	case Comprehend:
		return "C"
	case Apply:
		return "A"
	default:
		return "?"
	}
}

// Topic is one TCPP programming topic covered in weeks 1-5.
type Topic struct {
	Name     string
	Week     int        // teaching week it is introduced (1-5)
	Level    BloomLevel // targeted mastery
	Artifact string     // package in this repository demonstrating it
}

// SharedMemoryCore returns the shared-memory programming topics the course
// teaches in weeks 1-5 (the TCPP "Programming" cross-cutting set scoped to
// shared memory, §II-III: the course explicitly excludes distributed
// computing), each pointing at the package that makes it runnable here.
func SharedMemoryCore() []Topic {
	return []Topic{
		{"concurrency vs parallelism", 1, Comprehend, "internal/eventloop"},
		{"processes/threads/tasks", 1, Comprehend, "internal/core"},
		{"speedup, efficiency, Amdahl's law", 1, Apply, "internal/curriculum"},
		{"shared memory and data races", 2, Apply, "internal/memmodel"},
		{"mutual exclusion and locks", 2, Apply, "internal/collections"},
		{"atomic operations", 2, Apply, "internal/collections"},
		{"barriers and synchronisation", 3, Apply, "internal/pyjama"},
		{"task parallelism and futures", 3, Apply, "internal/ptask"},
		{"task dependences and DAGs", 3, Apply, "internal/ptask"},
		{"worksharing loops and schedules", 4, Apply, "internal/pyjama"},
		{"load balancing and work stealing", 4, Comprehend, "internal/sched"},
		{"granularity trade-offs", 4, Apply, "internal/pdfsearch"},
		{"reductions", 5, Apply, "internal/reduction"},
		{"parallel algorithm patterns", 5, Comprehend, "internal/patterns"},
		{"performance measurement", 5, Apply, "internal/metrics"},
	}
}

// Validate checks the syllabus is well-formed: weeks within the teaching
// block, every topic bound to an artifact, no duplicate names.
func Validate(topics []Topic) error {
	seen := map[string]bool{}
	for _, t := range topics {
		if t.Week < 1 || t.Week > 5 {
			return fmt.Errorf("curriculum: %q scheduled in week %d, outside weeks 1-5", t.Name, t.Week)
		}
		if t.Artifact == "" {
			return fmt.Errorf("curriculum: %q has no runnable artifact", t.Name)
		}
		if seen[t.Name] {
			return fmt.Errorf("curriculum: duplicate topic %q", t.Name)
		}
		seen[t.Name] = true
	}
	return nil
}

// WeekPlan groups topics by teaching week, sorted.
func WeekPlan(topics []Topic) map[int][]Topic {
	plan := map[int][]Topic{}
	for _, t := range topics {
		plan[t.Week] = append(plan[t.Week], t)
	}
	for w := range plan {
		sort.Slice(plan[w], func(i, j int) bool { return plan[w][i].Name < plan[w][j].Name })
	}
	return plan
}

// ApplyShare returns the fraction of topics targeted at the Apply level —
// the "doing or building something" emphasis §III-E insists on.
func ApplyShare(topics []Topic) float64 {
	if len(topics) == 0 {
		return 0
	}
	n := 0
	for _, t := range topics {
		if t.Level == Apply {
			n++
		}
	}
	return float64(n) / float64(len(topics))
}

// AmdahlSpeedup returns Amdahl's law: the speedup on p processors of a
// program whose parallelisable fraction is f (0 <= f <= 1).
func AmdahlSpeedup(f float64, p int) float64 {
	if p < 1 || f < 0 || f > 1 {
		return 0
	}
	return 1 / ((1 - f) + f/float64(p))
}

// AmdahlLimit returns the p→∞ ceiling, 1/(1-f); +Inf for f = 1.
//
//parcvet:ignore unused course Amdahl ceiling taught in the lectures
func AmdahlLimit(f float64) float64 {
	if f >= 1 {
		return inf()
	}
	return 1 / (1 - f)
}

// GustafsonSpeedup returns Gustafson's scaled speedup: s + p(1-s) for
// serial fraction s of the scaled workload.
//
//parcvet:ignore unused course Gustafson scaled speedup taught in the lectures
func GustafsonSpeedup(s float64, p int) float64 {
	if p < 1 || s < 0 || s > 1 {
		return 0
	}
	return s + float64(p)*(1-s)
}

// KarpFlatt returns the experimentally determined serial fraction from a
// measured speedup on p processors — the metric instructors use to show
// students *why* their measured curve bends.
func KarpFlatt(speedup float64, p int) float64 {
	if p <= 1 || speedup <= 0 {
		return 0
	}
	return (1/speedup - 1/float64(p)) / (1 - 1/float64(p))
}

func inf() float64 {
	one, zero := 1.0, 0.0
	return one / zero
}
