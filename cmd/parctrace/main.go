// Command parctrace records, inspects, renders, and replays task-DAG
// traces (schema parc751/trace/v1) — the CLI front end of the
// internal/parctrace recorder and the schedule-replay debugger of
// DESIGN.md §15.
//
// Usage:
//
//	parctrace record -workload quicksort -seed 751 -chaos -o trace.json
//	parctrace dump trace.json             # summary + ASCII timeline
//	parctrace render trace.json -o t.html # self-contained HTML/SVG viewer
//	parctrace replay trace.json           # re-execute and verify
//	parctrace -replay trace.json          # same, flag spelling
//
// record executes one of the replay catalogue's workloads (quicksort,
// barrier, thumbs, webfetch, webretry, webhang, partition) under a
// fresh recorder — with -chaos, under the kind's seeded fault plan, the
// one experiment A12 runs — and writes the dump. replay re-executes a dump's
// recorded coordinate (its workload spec under the fault plan stored in
// the dump) and verifies the canonical projections are bit-identical:
// exit 0 means the schedule reproduced, exit 1 with a diff means it did
// not.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"parc751/internal/parctrace"
	"parc751/internal/parctrace/replay"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// Flag spelling: `parctrace -replay trace.json` is the documented
	// debugger entry point; rewrite it to the subcommand form.
	if len(args) >= 1 && args[0] == "-replay" {
		args = append([]string{"replay"}, args[1:]...)
	}
	if len(args) < 1 {
		usage()
		return 2
	}
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "record":
		err = cmdRecord(rest)
	case "dump":
		err = cmdDump(rest)
	case "render":
		err = cmdRender(rest)
	case "replay":
		err = cmdReplay(rest)
	default:
		usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "parctrace:", err)
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  parctrace record -workload <%s> [-seed N] [-n N] [-workers N] [-chaos] [-cap N] [-o file]
  parctrace dump <trace.json>
  parctrace render <trace.json> [-o out.html]
  parctrace replay <trace.json>   (also: parctrace -replay <trace.json>)
`, strings.Join(replay.Kinds(), "|"))
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	var (
		wl      = fs.String("workload", replay.KindQuicksort, "workload kind: "+strings.Join(replay.Kinds(), ", "))
		seed    = fs.Uint64("seed", 751, "workload seed")
		n       = fs.Int("n", 0, "workload size (0 = kind default)")
		workers = fs.Int("workers", 2, "worker threads")
		chaos   = fs.Bool("chaos", false, "run under the seeded fault plan")
		laneCap = fs.Int("cap", 0, "per-worker ring capacity (0 = default)")
		out     = fs.String("o", "trace.json", "output file (- for stdout)")
	)
	fs.Parse(args)
	d, err := replay.Record(parctrace.WorkloadSpec{
		Kind: *wl, Seed: *seed, N: *n, Workers: *workers, Chaos: *chaos,
	}, *laneCap)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := parctrace.WriteDump(w, d); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "recorded %s: %d events in window, counts %v, %d fault(s)\n",
		d.Name, d.Recorded, d.Counts, len(d.Faults))
	return nil
}

func load(path string) (*parctrace.Dump, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parctrace.ReadDump(data)
}

// parseWithFile parses fs over args accepting the single trace-file
// operand before or after the flags (`render t.json -o x.html` and
// `render -o x.html t.json` both work — Go's flag package alone stops
// at the first positional).
func parseWithFile(fs *flag.FlagSet, args []string) (string, error) {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		file := args[0]
		fs.Parse(args[1:])
		if fs.NArg() != 0 {
			return "", fmt.Errorf("%s: want exactly one trace file", fs.Name())
		}
		return file, nil
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		return "", fmt.Errorf("%s: want exactly one trace file", fs.Name())
	}
	return fs.Arg(0), nil
}

func cmdDump(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	width := fs.Int("width", 100, "ASCII timeline width")
	file, err := parseWithFile(fs, args)
	if err != nil {
		return err
	}
	d, err := load(file)
	if err != nil {
		return err
	}
	fmt.Printf("trace   %s (schema %s)\n", d.Name, d.Schema)
	fmt.Printf("workers %d  seed %d\n", d.Workers, d.Seed)
	if d.Workload != nil {
		fmt.Printf("workload %s n=%d workers=%d chaos=%v\n",
			d.Workload.Kind, d.Workload.N, d.Workload.Workers, d.Workload.Chaos)
	}
	fmt.Printf("events  %d recorded, %d lost, %d sampled out\n", d.Recorded, d.Lost, d.SampledOut)
	fmt.Printf("counts  %v\n", d.Counts)
	if len(d.Faults) > 0 {
		fmt.Printf("faults  %s\n", strings.Join(d.Faults, " "))
	}
	fmt.Println()
	fmt.Print(parctrace.RenderASCII(d, *width))
	return nil
}

func cmdRender(args []string) error {
	fs := flag.NewFlagSet("render", flag.ExitOnError)
	out := fs.String("o", "trace.html", "output HTML file (- for stdout)")
	file, err := parseWithFile(fs, args)
	if err != nil {
		return err
	}
	d, err := load(file)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return parctrace.RenderHTML(w, d)
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	laneCap := fs.Int("cap", 0, "per-worker ring capacity (0 = default)")
	file, err := parseWithFile(fs, args)
	if err != nil {
		return err
	}
	recorded, err := load(file)
	if err != nil {
		return err
	}
	replayed, err := replay.Replay(recorded, *laneCap)
	if err != nil {
		return err
	}
	if err := replay.Verify(recorded, replayed); err != nil {
		return err
	}
	fmt.Printf("replay of %s reproduced the recorded schedule: canonical traces bit-identical, %d fault ordinal(s) matched\n",
		recorded.Name, len(recorded.Faults))
	return nil
}
