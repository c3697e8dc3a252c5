package perfbench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// The ratchet policy (EXPERIMENTS.md): a hot path regresses when its
// ns/op exceeds the committed baseline by more than TolerancePct AND by
// more than EpsilonNs. The relative bound is the contract; the absolute
// epsilon keeps sub-nanosecond jitter on very fast paths (a 3 ns barrier
// word bump is 10% of 30 ns) from flapping the build. Allocations
// ratchet separately and absolutely: any increase of at least
// AllocSlack objects per op fails, because the zero-allocation paths
// must stay at zero — there is no "10% of zero".
const (
	DefaultTolerancePct = 10.0
	DefaultEpsilonNs    = 20.0
	AllocSlack          = 0.5
)

// Regression is one failed ratchet check.
type Regression struct {
	Name   string
	Detail string
}

// Compare applies the ratchet: every baseline hot path must still exist
// and must not regress in ns/op (beyond tolPct AND epsNs) or allocs/op
// (beyond AllocSlack). Paths new in cur are allowed — they become part
// of the baseline when the report is committed. It reports BuildDelta's
// "missing" and "regressed" rows, one Regression per failed check.
func Compare(base, cur Report, tolPct, epsNs float64) []Regression {
	rep := BuildDelta("", base, cur, tolPct, epsNs)
	var regs []Regression
	for _, d := range rep.Deltas {
		switch d.Status {
		case "missing":
			regs = append(regs, Regression{d.Name,
				"hot path present in the baseline but missing from this run (coverage regression)"})
		case "regressed":
			if d.nsRegressed(rep.TolPct, rep.EpsNs) {
				regs = append(regs, Regression{d.Name, fmt.Sprintf(
					"ns/op %.1f vs baseline %.1f (+%.1f%%, tolerance %.0f%%)",
					d.CurNsPerOp, d.BaseNsPerOp, d.NsDeltaPct, rep.TolPct)})
			}
			if d.allocsRegressed() {
				regs = append(regs, Regression{d.Name, fmt.Sprintf(
					"allocs/op %.2f vs baseline %.2f (allocation budget is a hard ratchet)",
					d.CurAllocs, d.BaseAllocs)})
			}
		}
	}
	return regs
}

// Delta is one hot path's baseline-vs-current row — the machine-readable
// form of what Compare decides, kept even for paths that pass so a CI
// artifact shows the whole picture, not just the failures.
type Delta struct {
	Name        string  `json:"name"`
	BaseNsPerOp float64 `json:"base_ns_per_op,omitempty"`
	CurNsPerOp  float64 `json:"cur_ns_per_op,omitempty"`
	// NsDeltaPct is (cur-base)/base in percent; negative is an improvement.
	NsDeltaPct float64 `json:"ns_delta_pct,omitempty"`
	BaseAllocs float64 `json:"base_allocs_per_op,omitempty"`
	CurAllocs  float64 `json:"cur_allocs_per_op,omitempty"`
	AllocDelta float64 `json:"alloc_delta,omitempty"`
	// Status is "ok", "regressed" (the ratchet would fail it), "new"
	// (no baseline row), or "missing" (baseline row with no current run).
	Status string `json:"status"`
}

// DeltaReport is the per-path comparison artifact CI uploads alongside
// the ratchet verdict.
type DeltaReport struct {
	Schema   string  `json:"schema"`
	Baseline string  `json:"baseline"`
	TolPct   float64 `json:"tolerance_pct"`
	EpsNs    float64 `json:"epsilon_ns"`
	Deltas   []Delta `json:"deltas"`
}

// DeltaSchemaV1 versions the delta-report artifact format.
const DeltaSchemaV1 = "parc751/perfbench-delta/v1"

// nsRegressed is the ratchet's time predicate: slower by more than
// tolPct AND by more than epsNs.
func (d Delta) nsRegressed(tolPct, epsNs float64) bool {
	return d.CurNsPerOp-d.BaseNsPerOp > epsNs && d.CurNsPerOp > d.BaseNsPerOp*(1+tolPct/100)
}

// allocsRegressed is the ratchet's allocation predicate.
func (d Delta) allocsRegressed() bool { return d.CurAllocs > d.BaseAllocs+AllocSlack }

// BuildDelta computes the per-path delta rows between a baseline and a
// current run: the one regression predicate Compare reports from.
func BuildDelta(baselineName string, base, cur Report, tolPct, epsNs float64) DeltaReport {
	if tolPct <= 0 {
		tolPct = DefaultTolerancePct
	}
	if epsNs <= 0 {
		epsNs = DefaultEpsilonNs
	}
	rep := DeltaReport{Schema: DeltaSchemaV1, Baseline: baselineName, TolPct: tolPct, EpsNs: epsNs}
	curByName := make(map[string]Result, len(cur.Results))
	for _, r := range cur.Results {
		curByName[r.Name] = r
	}
	seen := make(map[string]bool, len(base.Results))
	for _, b := range base.Results {
		seen[b.Name] = true
		c, ok := curByName[b.Name]
		if !ok {
			rep.Deltas = append(rep.Deltas, Delta{
				Name: b.Name, BaseNsPerOp: b.NsPerOp, BaseAllocs: b.AllocsPerOp,
				Status: "missing",
			})
			continue
		}
		d := Delta{
			Name:        b.Name,
			BaseNsPerOp: b.NsPerOp,
			CurNsPerOp:  c.NsPerOp,
			BaseAllocs:  b.AllocsPerOp,
			CurAllocs:   c.AllocsPerOp,
			AllocDelta:  c.AllocsPerOp - b.AllocsPerOp,
			Status:      "ok",
		}
		if b.NsPerOp > 0 {
			d.NsDeltaPct = 100 * (c.NsPerOp - b.NsPerOp) / b.NsPerOp
		}
		if d.nsRegressed(tolPct, epsNs) || d.allocsRegressed() {
			d.Status = "regressed"
		}
		rep.Deltas = append(rep.Deltas, d)
	}
	for _, c := range cur.Results {
		if !seen[c.Name] {
			rep.Deltas = append(rep.Deltas, Delta{
				Name: c.Name, CurNsPerOp: c.NsPerOp, CurAllocs: c.AllocsPerOp,
				Status: "new",
			})
		}
	}
	sort.Slice(rep.Deltas, func(i, j int) bool { return rep.Deltas[i].Name < rep.Deltas[j].Name })
	return rep
}

// WriteDelta marshals the delta report to path (same conventions as
// WriteReport).
func WriteDelta(path string, rep DeltaReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// WriteReport marshals the report to path (pretty-printed, trailing
// newline — the file is committed and diffed by humans).
func WriteReport(path string, rep Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadReport reads and validates a committed report.
func LoadReport(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("perfbench: %s: %w", path, err)
	}
	if rep.Schema != SchemaV1 {
		return rep, fmt.Errorf("perfbench: %s: unknown schema %q (want %q)", path, rep.Schema, SchemaV1)
	}
	return rep, nil
}

var benchFileRe = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// LatestBaseline finds the highest-numbered BENCH_<n>.json in dir —
// the last committed baseline, by the stacked-PR numbering convention.
// exclude (may be "") names a file to skip, so a run regenerating
// BENCH_7.json ratchets against BENCH_6.json rather than itself.
// Returns "" when no baseline exists (first ever report).
func LatestBaseline(dir, exclude string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, e := range entries {
		m := benchFileRe.FindStringSubmatch(e.Name())
		if m == nil || e.Name() == filepath.Base(exclude) {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err != nil || n <= bestN {
			continue
		}
		best, bestN = filepath.Join(dir, e.Name()), n
	}
	return best, nil
}

// FormatRegressions renders the verdict block the CLI prints.
func FormatRegressions(regs []Regression) string {
	if len(regs) == 0 {
		return "perf ratchet: all hot paths within tolerance"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "perf ratchet: %d hot path(s) regressed:\n", len(regs))
	for _, r := range regs {
		fmt.Fprintf(&sb, "  %-24s %s\n", r.Name, r.Detail)
	}
	return strings.TrimRight(sb.String(), "\n")
}
