// Command parcaudit checks a project tree against the PARC repository
// protocols (§IV-A): source/test/bench separation, no committed build
// artifacts, and Linux portability (path separators, line endings). It
// shares parcvet's flag and exit-code conventions (internal/report):
//
//	exit 0 — ran, no error-severity findings
//	exit 1 — ran, at least one error-severity finding
//	exit 2 — could not run (bad flags, unreadable tree)
//
// Usage:
//
//	parcaudit -dir path/to/project
//	parcaudit -dir . -errors-only -json
package main

import (
	"flag"
	"fmt"
	"os"

	"parc751/internal/repohygiene"
	"parc751/internal/report"
)

func main() {
	var (
		dir        = flag.String("dir", ".", "project directory to audit")
		errorsOnly = flag.Bool("errors-only", false, "report only error-severity findings")
		jsonOut    = flag.Bool("json", false, "emit findings as a JSON array")
		maxBytes   = flag.Int64("max-bytes", 1<<20, "largest file to content-check")
	)
	flag.Parse()

	findings, err := repohygiene.AuditFS(repohygiene.PARCDefaults(), os.DirFS(*dir), *maxBytes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parcaudit: %v\n", err)
		os.Exit(2)
	}
	if *errorsOnly {
		findings = report.Errors(findings)
	}
	if err := report.Render(os.Stdout, findings, *jsonOut); err != nil {
		fmt.Fprintf(os.Stderr, "parcaudit: %v\n", err)
		os.Exit(2)
	}
	os.Exit(report.ExitCode(findings))
}
