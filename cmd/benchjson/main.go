// Command benchjson converts `go test -bench -benchmem` output into a
// stable JSON report. The report is the interchange format of the
// benchmark-regression harness: `make bench-json` checks one in as
// BENCH.json, and cmd/benchdiff compares two of them.
//
// Output is deterministic for a given input: benchmarks are sorted by
// name and metric keys are emitted in sorted order, so reports diff
// cleanly under version control.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the top-level JSON document.
type Report struct {
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	} else if flag.NArg() > 1 {
		fatal(fmt.Errorf("usage: benchjson [-out file] [bench-output-file]"))
	}

	report, err := parse(in)
	if err != nil {
		fatal(err)
	}
	if len(report.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
}

// parse extracts benchmark lines of the form
//
//	BenchmarkName/sub-8   5   229017204 ns/op   3929 maxload   ...
//
// A benchmark that appears several times (e.g. -count) keeps its
// fastest occurrence by ns/op: timing noise on shared hardware is
// strictly additive, so the minimum over repeats is the robust
// estimate of the true cost. Repeats without ns/op keep the last.
func parse(in io.Reader) (Report, error) {
	byName := map[string]Benchmark{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		b, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		if prev, seen := byName[b.Name]; seen {
			pn, pok := prev.Metrics["ns/op"]
			n, nok := b.Metrics["ns/op"]
			if pok && nok && n >= pn {
				continue
			}
		}
		byName[b.Name] = b
	}
	if err := sc.Err(); err != nil {
		return Report{}, err
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	var r Report
	for _, name := range names {
		r.Benchmarks = append(r.Benchmarks, byName[name])
	}
	return r, nil
}

func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	// Strip the -GOMAXPROCS suffix so reports from machines with
	// different core counts stay comparable.
	if i := strings.LastIndex(name, "-"); i >= 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iters: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
