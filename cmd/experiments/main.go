// Command experiments regenerates every experiment of the
// reproduction — both figures, the numbered examples, and the load
// bound measurements — and prints paper-claim-vs-measured reports.
//
// Cells (experiment × parameter-point jobs) run as one parallel map on
// the internal/sweep pool, on at most one goroutine per cell. The
// rendered reports are byte-identical for every -parallel value: only
// the stderr summary line (cells, workers, timing, errored cells) may
// differ.
//
// Usage:
//
//	experiments                  # run everything sequentially
//	experiments -parallel 0      # run on GOMAXPROCS workers
//	experiments -run SKEW        # run experiments whose ID contains SKEW
//	experiments -list            # list experiment IDs
//
// The exit code is 0 only when every selected experiment passes; a
// cell that errors or panics fails its experiment and exits 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"mpclogic/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runFilter := fs.String("run", "", "only run experiments whose ID contains this substring")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	parallel := fs.Int("parallel", 1, "sweep worker count; 0 or negative means GOMAXPROCS")
	selftest := fs.Bool("selftest", false, "also register the synthetic ZZSELF harness self-test experiments")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *selftest {
		experiments.RegisterSelfTest()
	}

	var defs []experiments.Def
	for _, d := range experiments.All() {
		if *runFilter != "" && !strings.Contains(d.ID, *runFilter) {
			continue
		}
		defs = append(defs, d)
	}

	if *list {
		for _, d := range defs {
			fmt.Fprintln(stdout, d.ID)
		}
		return 0
	}
	if len(defs) == 0 {
		fmt.Fprintf(stderr, "no experiment matches %q\n", *runFilter)
		return 2
	}

	workers := *parallel
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	reports, stats := experiments.RunSweep(workers, defs)
	elapsed := time.Since(start)

	failed := 0
	for _, rep := range reports {
		fmt.Fprintln(stdout, rep)
		if !rep.Pass {
			failed++
		}
	}
	fmt.Fprintf(stdout, "%d experiments run, %d failed\n", len(reports), failed)
	// Timing is measurement-only and goes to stderr so stdout stays
	// byte-identical across worker counts.
	//lint:allow nondet-taint wall-clock timing goes to the stderr diagnostics stream, never the byte-stable stdout report
	fmt.Fprintf(stderr, "sweep: %d cells over %d workers in %s (Σ cell wall %s, errored %d)\n",
		stats.Cells, workers, elapsed.Round(time.Millisecond), stats.Wall.Round(time.Millisecond),
		stats.ErroredCells)
	if failed > 0 {
		return 1
	}
	return 0
}
