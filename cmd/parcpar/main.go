// Command parcpar detects auto-parallelization opportunities in
// sequential Go code: canonical loops whose iterations are provably
// independent and whose estimated cost clears the pyjama fork-join
// threshold. It is parcvet's inverse — built on the same loader, CFG,
// and report conventions — and can rewrite what it finds. Every finding
// is a warning, so parcpar exits 0 when it ran and 2 when it could not
// (bad flags, load failure).
//
// Usage:
//
//	parcpar ./...                         # opportunities, whole module
//	parcpar -explain ./internal/kernels   # include reasoned rejections
//	parcpar -json ./... > findings.json
//	parcpar -fix ./internal/parcpar/autogen/seq        # rewrite in place
//	parcpar -o out -pkg par ./internal/parcpar/autogen/seq
//	parcpar -calibrate                    # print a host-local probe table
//	parcpar -list                         # describe the rules
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"parc751/internal/parcpar"
	"parc751/internal/parcvet/loader"
	"parc751/internal/report"
)

func main() {
	var (
		dir       = flag.String("dir", ".", "directory inside the module to analyze from")
		jsonOut   = flag.Bool("json", false, "emit findings as a JSON array")
		explain   = flag.Bool("explain", false, "also report reasoned rejections (earlyexit, dependence, impurity, belowthreshold)")
		fix       = flag.Bool("fix", false, "rewrite rewritable loops to pyjama.ParallelFor / ParallelForReduce in place")
		outDir    = flag.String("o", "", "write rewritten copies of files with rewrites into this directory (requires one source-dir argument)")
		outPkg    = flag.String("pkg", "", "package name for -o output (default: source package name)")
		calibrate = flag.Bool("calibrate", false, "measure a probe table on this host and print it as JSON")
		list      = flag.Bool("list", false, "list the rules and exit")
	)
	flag.Parse()

	if *list {
		fmt.Print(`parallelizable  warning  loop is independent and clears the cost threshold; rewrite available
earlyexit       warning  break/return/goto makes the trip count data-dependent (-explain)
dependence      warning  loop-carried dependence: shared scalar or aliasing writes (-explain)
impurity        warning  body calls or uses something outside the purity model (-explain)
belowthreshold  warning  safe but cheaper than one fork-join; not worth forking (-explain)
`)
		return
	}

	if *calibrate {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(parcpar.Calibrate()); err != nil {
			fatal(err)
		}
		return
	}

	root, err := loader.FindModuleRoot(*dir)
	if err != nil {
		fatal(err)
	}
	opts := parcpar.Options{Explain: *explain}

	if *outDir != "" {
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("-o requires exactly one source directory argument"))
		}
		written, err := parcpar.GenerateDir(root, flag.Arg(0), *outDir, *outPkg)
		if err != nil {
			fatal(err)
		}
		for _, name := range written {
			fmt.Printf("wrote %s/%s\n", *outDir, name)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	if *fix {
		changed, err := parcpar.Fix(root, patterns, opts)
		if err != nil {
			fatal(err)
		}
		for _, name := range changed {
			fmt.Printf("rewrote %s\n", name)
		}
		return
	}

	findings, err := parcpar.Run(root, patterns, opts)
	if err != nil {
		fatal(err)
	}
	if err := report.Render(os.Stdout, findings, *jsonOut); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "parcpar: %v\n", err)
	os.Exit(2)
}
