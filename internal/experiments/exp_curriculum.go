package experiments

import (
	"fmt"
	"strings"

	"parc751/internal/curriculum"
	"parc751/internal/machine"
	"parc751/internal/metrics"
)

func runECurr(cfg Config, res *Result) {
	topics := curriculum.SharedMemoryCore()
	err := curriculum.Validate(topics)

	plan := curriculum.WeekPlan(topics)
	tab := metrics.NewTable("Weeks 1-5 syllabus (TCPP shared-memory core -> runnable artifact)",
		"week", "topic", "level", "artifact")
	for w := 1; w <= 5; w++ {
		for _, t := range plan[w] {
			tab.AddRow(w, t.Name, t.Level.String(), t.Artifact)
		}
	}

	// The week-1 lecture demo: Amdahl's law against the simulated
	// machine, the cross-validation instructors can run live.
	amTab := metrics.NewTable("Amdahl's law vs the simulated machine (f = parallel fraction)",
		"f", "p", "Amdahl", "simulated", "Karp-Flatt serial fraction")
	const totalWork = 1 << 20
	tracks := true
	for _, frac := range []float64{0.5, 0.9, 0.99} {
		for _, p := range []int{4, 16, 64} {
			serialWork := uint64(float64(totalWork) * (1 - frac))
			parallelWork := uint64(totalWork) - serialWork
			run := func(procs int) uint64 {
				m := machine.New(machine.Config{Name: "amdahl", Procs: procs, SpeedFactor: 1})
				const chunks = 256
				m.Submit(0, serialWork, func(ctx *machine.Ctx) {
					for i := 0; i < chunks; i++ {
						ctx.Spawn(parallelWork/chunks, nil)
					}
				})
				return m.Run().Makespan
			}
			measured := float64(run(1)) / float64(run(p))
			predicted := curriculum.AmdahlSpeedup(frac, p)
			if measured < predicted*0.9 || measured > predicted*1.01 {
				tracks = false
			}
			amTab.AddRow(frac, p, predicted, measured,
				fmt.Sprintf("%.3f", curriculum.KarpFlatt(measured, p)))
		}
	}

	var b strings.Builder
	b.WriteString(tab.String())
	b.WriteString("\n")
	b.WriteString(amTab.String())
	fmt.Fprintf(&b, "\napply-level share of the syllabus: %.0f%% (§III-E: 'doing or building')\n",
		curriculum.ApplyShare(topics)*100)
	res.Output = b.String()

	res.ok("syllabus valid with runnable artifacts", err == nil)
	res.ok("majority of topics at apply level", curriculum.ApplyShare(topics) >= 0.5)
	res.ok("simulator tracks Amdahl within 10%", tracks)
	res.metric("apply_share", curriculum.ApplyShare(topics))
}
