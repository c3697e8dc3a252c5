package course

import (
	"fmt"
	"math"
	"sort"
)

// PeerEvaluation models the §III-C requirement that "students were also
// required to submit peer evaluations discussing the contributions made by
// each member". Each member rates every other member on a 1-5 scale; the
// instructors cross-check the ratings against the subversion log and, "in
// most cases", award equal marks — the machinery below implements that
// workflow.
type PeerEvaluation struct {
	Members []string
	// Ratings[rater][ratee] in [1, 5]; self-ratings are ignored.
	Ratings map[string]map[string]float64
}

// Validate checks every member rated every other member within scale.
func (pe PeerEvaluation) Validate() error {
	if len(pe.Members) < 2 {
		return fmt.Errorf("course: peer evaluation needs at least two members")
	}
	for _, rater := range pe.Members {
		rs, ok := pe.Ratings[rater]
		if !ok {
			return fmt.Errorf("course: member %q submitted no evaluation", rater)
		}
		for _, ratee := range pe.Members {
			if ratee == rater {
				continue
			}
			v, ok := rs[ratee]
			if !ok {
				return fmt.Errorf("course: %q did not rate %q", rater, ratee)
			}
			if v < 1 || v > 5 {
				return fmt.Errorf("course: %q rated %q %.1f, outside [1,5]", rater, ratee, v)
			}
		}
	}
	return nil
}

// MeanReceived returns each member's mean rating from peers.
func (pe PeerEvaluation) MeanReceived() map[string]float64 {
	out := map[string]float64{}
	for _, ratee := range pe.Members {
		sum, n := 0.0, 0
		for _, rater := range pe.Members {
			if rater == ratee {
				continue
			}
			if v, ok := pe.Ratings[rater][ratee]; ok {
				sum += v
				n++
			}
		}
		if n > 0 {
			out[ratee] = sum / float64(n)
		}
	}
	return out
}

// Consensus reports whether every member's mean received rating lies
// within tol of the group's overall mean — the "in most cases, students
// within a team were awarded equal marks" condition.
func (pe PeerEvaluation) Consensus(tol float64) bool {
	means := pe.MeanReceived()
	if len(means) == 0 {
		return true
	}
	total := 0.0
	for _, m := range means {
		total += m
	}
	avg := total / float64(len(means))
	for _, m := range means {
		if math.Abs(m-avg) > tol {
			return false
		}
	}
	return true
}

// AdjustedMarks distributes the group mark per member: with consensus,
// everyone receives the group mark; otherwise each member's mark scales
// with their mean rating relative to the group average, clamped to ±20%
// and capped at 100.
func (pe PeerEvaluation) AdjustedMarks(groupMark float64, tol float64) map[string]float64 {
	out := map[string]float64{}
	if pe.Consensus(tol) {
		for _, m := range pe.Members {
			out[m] = groupMark
		}
		return out
	}
	means := pe.MeanReceived()
	total := 0.0
	for _, m := range means {
		total += m
	}
	avg := total / float64(len(means))
	for _, member := range pe.Members {
		factor := 1.0
		if avg > 0 {
			factor = means[member] / avg
		}
		if factor > 1.2 {
			factor = 1.2
		}
		if factor < 0.8 {
			factor = 0.8
		}
		mark := groupMark * factor
		if mark > 100 {
			mark = 100
		}
		out[member] = mark
	}
	return out
}

// CrossCheck compares peer perception with the commit log: it returns the
// members whose peer standing (above/below the group mean) contradicts
// their commit share (below/above the equal share) by more than tol on
// both axes — the cases an instructor investigates rather than trusting
// either signal alone.
//
//parcvet:ignore unused course instructor cross-check of peer standing against commit share
func (pe PeerEvaluation) CrossCheck(log CommitLog, tol float64) ([]string, error) {
	shares, err := log.Shares()
	if err != nil {
		return nil, err
	}
	shareOf := map[string]float64{}
	for _, s := range shares {
		shareOf[s.Member] = s.Share
	}
	means := pe.MeanReceived()
	total := 0.0
	for _, m := range means {
		total += m
	}
	avg := total / float64(len(means))
	equal := 1 / float64(len(pe.Members))

	var flagged []string
	for _, m := range pe.Members {
		peerHigh := means[m] > avg+tol
		peerLow := means[m] < avg-tol
		commitHigh := shareOf[m] > equal+0.1
		commitLow := shareOf[m] < equal-0.1
		if (peerHigh && commitLow) || (peerLow && commitHigh) {
			flagged = append(flagged, m)
		}
	}
	sort.Strings(flagged)
	return flagged, nil
}
