package experiments

import (
	"fmt"

	"parc751/internal/metrics"
	"parc751/internal/repohygiene"
	"parc751/internal/report"
	"parc751/internal/xrand"
)

// runEProto audits two synthetic student repositories: one following the
// §IV-A protocols and one committing the classic violations (build
// artifacts, Windows paths, CRLF scripts, no src/test separation). The
// clean tree must pass and every planted violation must be caught.
func runEProto(cfg Config, res *Result) {
	r := xrand.New(cfg.Seed)

	clean := []repohygiene.File{
		{Path: "src/nz/ac/auckland/parc/Main.java", Content: []byte("class Main {}\n")},
		{Path: "src/nz/ac/auckland/parc/Pool.java", Content: []byte("class Pool {}\n")},
		{Path: "test/PoolTest.java", Content: []byte("class PoolTest {}\n")},
		{Path: "bench/SortBench.java", Content: []byte("class SortBench {}\n")},
		{Path: "scripts/run.sh", Content: []byte("#!/bin/sh\njava -cp src Main\n")},
		{Path: "doc/report.txt", Content: []byte("group 7 report\n")},
	}
	for i := 0; i < 30; i++ {
		clean = append(clean, repohygiene.File{
			Path:    fmt.Sprintf("src/gen/%s.java", r.Letters(8)),
			Content: []byte("class G {}\n"),
		})
	}

	planted := map[string]int{
		"committed-artifact":     2,
		"committed-build-dir":    1,
		"path-separator":         1,
		"crlf-line-endings":      1,
		"hardcoded-windows-path": 1,
		"missing-shebang":        1,
		"case-collision":         1,
	}
	dirty := append(append([]repohygiene.File(nil), clean...),
		repohygiene.File{Path: "src/Main.class"},
		repohygiene.File{Path: "parc.jar"},
		repohygiene.File{Path: "build/out/App.class"}, // build-dir + artifact counted once each rule
		repohygiene.File{Path: `src\win\Helper.java`},
		repohygiene.File{Path: "scripts/deploy.sh", Content: []byte("#!/bin/sh\r\necho hi\r\n")},
		repohygiene.File{Path: "src/Cfg.java", Content: []byte(`String p = "C:\\parc";` + "\n")},
		repohygiene.File{Path: "scripts/build.sh", Content: []byte("javac Main.java\n")},
		repohygiene.File{Path: "src/GEN/first.java"},
		repohygiene.File{Path: "src/gen/FIRST.java"},
	)
	// The build/out/App.class line triggers committed-artifact too.
	planted["committed-artifact"]++

	pcfg := repohygiene.PARCDefaults()
	cleanViolations := repohygiene.Audit(pcfg, clean)
	dirtyViolations := repohygiene.Audit(pcfg, dirty)

	counts := map[string]int{}
	for _, v := range dirtyViolations {
		counts[v.Rule]++
	}
	tab := metrics.NewTable("§IV-A protocol audit: planted violations vs caught",
		"rule", "planted", "caught")
	allCaught := true
	for rule, want := range planted {
		got := counts[rule]
		tab.AddRow(rule, want, got)
		if got < want {
			allCaught = false
		}
	}

	res.Output = tab.String() +
		fmt.Sprintf("\nclean repository: %d violations; dirty repository: %d violations (%d errors)\n",
			len(cleanViolations), len(dirtyViolations), len(report.Errors(dirtyViolations)))
	res.ok("clean repository passes", len(cleanViolations) == 0)
	res.ok("every planted violation caught", allCaught)
	res.ok("errors ranked before warnings", len(dirtyViolations) == 0 ||
		dirtyViolations[0].Severity == report.Error)
	res.metric("violations_caught", float64(len(dirtyViolations)))
}
