// Command coverfloor gates statement coverage against a checked-in
// per-package floor. It is the gate behind `make cover`: the input is
// the raw output of `go test -cover` over the guarded packages, the
// baseline is COVERAGE.json, and the build fails when any guarded
// package's coverage drops more than the slack below its floor — new
// code in a guarded package has to bring tests with it, and a deletion
// there cannot take the only covered path with it unseen.
//
//	coverfloor [-baseline COVERAGE.json] [-slack 2.0] [-write] cover.txt
//
// The slack absorbs the small shifts refactors cause (a moved branch
// changes the statement count without changing what is tested);
// deliberate improvements are locked in with -write, which regenerates
// the baseline from the measured values. Output lines are sorted by
// package so repeated runs are byte-identical.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
)

type baseline struct {
	// Floors maps import path → the statement-coverage percentage the
	// package had when the baseline was last regenerated.
	Floors map[string]float64 `json:"floors"`
}

var coverLine = regexp.MustCompile(`^ok\s+(\S+)\s+.*coverage:\s+([0-9.]+)% of statements`)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("coverfloor", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "COVERAGE.json", "checked-in coverage floor file")
	slack := fs.Float64("slack", 2.0, "allowed drop below the floor, in percentage points")
	write := fs.Bool("write", false, "regenerate the baseline from the measured coverage")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: coverfloor [-baseline file] [-slack pts] [-write] cover.txt")
		return 2
	}

	measured, err := parseCover(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "coverfloor: %v\n", err)
		return 2
	}
	if len(measured) == 0 {
		fmt.Fprintf(stderr, "coverfloor: no coverage lines in %s\n", fs.Arg(0))
		return 2
	}

	if *write {
		data, err := json.MarshalIndent(baseline{Floors: measured}, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "coverfloor: %v\n", err)
			return 2
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "coverfloor: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "coverfloor: wrote %d floors to %s\n", len(measured), *baselinePath)
		return 0
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "coverfloor: %v (regenerate with -write)\n", err)
		return 2
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(stderr, "coverfloor: bad baseline %s: %v\n", *baselinePath, err)
		return 2
	}

	pkgs := make([]string, 0, len(base.Floors))
	for pkg := range base.Floors {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)

	failures := 0
	for _, pkg := range pkgs {
		floor := base.Floors[pkg]
		got, ok := measured[pkg]
		if !ok {
			// A guarded package that stops reporting coverage is a
			// failure, not a skip: deleting its tests must not pass.
			fmt.Fprintf(stdout, "coverfloor: FAIL %-32s floor %5.1f%%  measured (none)\n", pkg, floor)
			failures++
			continue
		}
		if got < floor-*slack {
			fmt.Fprintf(stdout, "coverfloor: FAIL %-32s floor %5.1f%%  measured %5.1f%%  (slack %.1f)\n",
				pkg, floor, got, *slack)
			failures++
			continue
		}
		fmt.Fprintf(stdout, "coverfloor: ok   %-32s floor %5.1f%%  measured %5.1f%%\n", pkg, floor, got)
	}
	if failures > 0 {
		fmt.Fprintf(stdout, "coverfloor: %d of %d guarded packages below floor\n", failures, len(pkgs))
		return 1
	}
	return 0
}

// parseCover extracts per-package coverage percentages from `go test
// -cover` output. Packages without test files or without coverage
// annotations are ignored — only what the baseline guards matters.
func parseCover(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range regexp.MustCompile(`\r?\n`).Split(string(data), -1) {
		m := coverLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var pct float64
		if _, err := fmt.Sscanf(m[2], "%f", &pct); err != nil {
			return nil, fmt.Errorf("bad coverage %q in %q", m[2], line)
		}
		out[m[1]] = pct
	}
	return out, nil
}
