package experiments

import (
	"fmt"
	"strings"

	"parc751/internal/course"
	"parc751/internal/metrics"
)

func runF1(cfg Config, res *Result) {
	acts := course.SoftEng751Activities()
	tab := metrics.NewTable("Figure 1 reproduction: SoftEng 751 activities on the nexus",
		"activity", "quadrant", "in course")
	for _, row := range course.NexusTable(acts) {
		present := "yes"
		if !row.Present {
			present = "no (deliberate, §III-E)"
		}
		tab.AddRow(row.Activity, row.Quadrant.String(), present)
	}
	cov := course.NexusCoverage(acts)
	var b strings.Builder
	b.WriteString(tab.String())
	fmt.Fprintf(&b, "\nquadrant coverage: led=%d oriented=%d tutored=%d based=%d\n",
		cov[course.ResearchLed], cov[course.ResearchOriented],
		cov[course.ResearchTutored], cov[course.ResearchBased])
	res.Output = b.String()
	res.ok("three quadrants covered", cov[course.ResearchLed] > 0 &&
		cov[course.ResearchTutored] > 0 && cov[course.ResearchBased] > 0)
	res.ok("research-oriented deliberately absent", cov[course.ResearchOriented] == 0)
}

func runF2(cfg Config, res *Result) {
	weeks := course.Calendar()
	tab := metrics.NewTable("Figure 2 reproduction: semester calendar", "week", "code", "detail")
	for _, w := range weeks {
		wk := "break"
		if w.Number > 0 {
			wk = fmt.Sprintf("%d", w.Number)
		}
		tab.AddRow(wk, w.Kind.Code(), w.Detail)
	}
	res.Output = tab.String()
	res.ok("12 teaching weeks", course.TeachingWeeks(weeks) == 12)
	res.ok("8 development weeks (§III-D)", course.DevelopmentWeeks(weeks) == 8)
	res.metric("teaching_weeks", float64(course.TeachingWeeks(weeks)))
}

func runTAssess(cfg Config, res *Result) {
	scheme := course.AssessmentScheme()
	tab := metrics.NewTable("§III-C assessment weights", "component", "weight %", "individual")
	sum, indiv := 0, 0
	for _, c := range scheme {
		tab.AddRow(c.Name, c.Weight, c.Individual)
		sum += c.Weight
		if c.Individual {
			indiv += c.Weight
		}
	}
	res.Output = tab.String() +
		fmt.Sprintf("\ntotal = %d%%, individually assessed = %d%%\n", sum, indiv)
	res.ok("weights sum to 100", course.ValidateScheme(scheme) == nil)
	res.ok("individual lecture assessment is 25% (Test 1)", scheme[0].Weight == 25)
	res.metric("individual_weight", float64(indiv))
}

func runEAlloc(cfg Config, res *Result) {
	poll := course.DefaultPoll()
	students := 60
	trials := 20
	if cfg.Quick {
		trials = 5
	}
	tab := metrics.NewTable("Allocation over simulated cohorts (60 students, 20 groups, 10 topics x 2)",
		"cohort seed", "placed", "unplaced", "topics full", "mean pref rank")
	allPlaced := true
	capOK := true
	var satSum float64
	for trial := 0; trial < trials; trial++ {
		seed := cfg.Seed + uint64(trial)
		groups := course.FormGroups(seed, students, 3, poll)
		a := course.Allocate(poll, groups)
		full := 0
		for _, gs := range a.GroupsOn {
			if len(gs) > poll.GroupsPerTopic {
				capOK = false
			}
			if len(gs) == poll.GroupsPerTopic {
				full++
			}
		}
		if len(a.Unplaced) > 0 {
			allPlaced = false
		}
		sat := course.Satisfaction(poll, groups, a)
		satSum += sat
		tab.AddRow(seed, len(a.TopicOf), len(a.Unplaced), full, sat)
	}
	meanSat := satSum / float64(trials)
	res.Output = tab.String() +
		fmt.Sprintf("\nmean preference rank received = %.2f (1 = everyone got first choice)\n", meanSat)
	res.ok("every group placed", allPlaced)
	res.ok("capacity never exceeded", capOK)
	res.ok("popular topics contested but satisfiable (mean rank < 4)", meanSat < 4)
	res.metric("mean_pref_rank", meanSat)
}

func runELikert(cfg Config, res *Result) {
	targets := course.PaperTargets()
	n := 60
	exact := course.ExactSurvey(n, targets)
	sim := course.SimulatedSurvey(cfg.Seed, n, targets)
	tab := metrics.NewTable("§V-A reproduction: agreement (strongly agree + agree)",
		"question", "paper", "exact cohort", "simulated cohort")
	withinTol := true
	for i, tgt := range targets {
		e := exact[i].Agreement()
		s := sim[i].Agreement()
		if e < tgt.Agreement-0.01 || e > tgt.Agreement+0.01 {
			withinTol = false
		}
		tab.AddRow(truncate(tgt.Text, 48),
			fmt.Sprintf("%.0f%%", tgt.Agreement*100),
			fmt.Sprintf("%.1f%%", e*100),
			fmt.Sprintf("%.1f%%", s*100))
	}
	var b strings.Builder
	b.WriteString(tab.String())
	b.WriteString("\nopen comments quoted by the paper:\n")
	for _, c := range course.OpenComments() {
		fmt.Fprintf(&b, "  - %q\n", truncate(c, 90))
	}
	res.Output = b.String()
	res.ok("exact cohort reproduces 95/95/92", withinTol)
	simClose := true
	for i, tgt := range targets {
		d := sim[i].Agreement() - tgt.Agreement
		if d < -0.10 || d > 0.10 {
			simClose = false
		}
	}
	res.ok("simulated cohort within 10 points", simClose)
	res.metric("q1_agreement", exact[0].Agreement())
	res.metric("q3_agreement", exact[2].Agreement())
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}
