// Command benchdiff compares two benchjson reports and exits nonzero
// when any benchmark regressed. It is the gate behind
// `make verify-perf`: the old report is the checked-in baseline
// (BENCH.json), the new one is a fresh run.
//
//	benchdiff [-max-regress 1.6] [-max-alloc-regress 1.02] \
//	          [-overhead-suffix Verified -max-overhead 1.4] old.json new.json
//
// Each metric is held to the strictness it can bear: ns/op is at the
// mercy of scheduler noise, so its factor is loose; allocs/op is
// deterministic modulo map growth, so its factor is tight; and the
// domain metrics (maxload, totalcomm, and any other custom b.ReportMetric
// series) are pure functions of the input, so they must match exactly.
// Metrics whose name ends in "/sec" (e.g. the ingestion benchmarks'
// facts/sec) are throughput: they are timing-derived, so they get the
// loose ns/op factor — but in the opposite direction, failing when the
// new value drops below old/max-regress. B/op and iters are not
// compared.
//
// -overhead-suffix additionally pairs benchmarks WITHIN the new report:
// a benchmark whose top-level name ends in the suffix (sub-benchmark
// path preserved, so FooVerified/p=64 pairs with Foo/p=64) is an
// instrumented variant of its base benchmark, and its ns/op may not
// exceed the base's by more than -max-overhead. Both sides come from
// the same fresh run, so the comparison is immune to baseline drift —
// frozen baselines simply list the variants as only-in-new.
//
// Output lines are sorted by benchmark name so repeated runs over the
// same pair of reports are byte-identical.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

type benchmark struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Metrics map[string]float64 `json:"metrics"`
}

type report struct {
	Benchmarks []benchmark `json:"benchmarks"`
}

func main() {
	maxRegress := flag.Float64("max-regress", 1.6,
		"fail when new ns/op exceeds old ns/op by more than this factor")
	maxAllocRegress := flag.Float64("max-alloc-regress", 1.02,
		"fail when new allocs/op exceeds old allocs/op by more than this factor")
	overheadSuffix := flag.String("overhead-suffix", "",
		"pair <base><suffix> benchmarks with <base> inside the new report and bound their ns/op ratio")
	maxOverhead := flag.Float64("max-overhead", 1.4,
		"fail when an overhead-suffix variant exceeds its base ns/op by more than this factor")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-max-regress f] old.json new.json")
		os.Exit(2)
	}
	old := load(flag.Arg(0))
	new_ := load(flag.Arg(1))

	names := make([]string, 0, len(old))
	for name := range old {
		names = append(names, name)
	}
	sort.Strings(names)

	regressions := 0
	compared := 0
	for _, name := range names {
		o, n := old[name], new_[name]
		if n.Name == "" {
			fmt.Printf("%-60s only in %s\n", name, flag.Arg(0))
			continue
		}
		oNS, oOK := o.Metrics["ns/op"]
		nNS, nOK := n.Metrics["ns/op"]
		if !oOK || !nOK || oNS == 0 {
			continue
		}
		compared++
		bad := ""
		ratio := nNS / oNS
		if ratio > *maxRegress {
			bad = "ns/op REGRESSION"
			regressions++
		}
		if oA, nA := o.Metrics["allocs/op"], n.Metrics["allocs/op"]; oA > 0 && nA/oA > *maxAllocRegress {
			bad += fmt.Sprintf("  allocs/op REGRESSION %.0f -> %.0f", oA, nA)
			regressions++
		}
		for _, metric := range throughputMetrics(o) {
			if oV, nV := o.Metrics[metric], n.Metrics[metric]; oV > 0 && nV < oV / *maxRegress {
				bad += fmt.Sprintf("  %s REGRESSION %.0f -> %.0f", metric, oV, nV)
				regressions++
			}
		}
		for _, metric := range domainMetrics(o) {
			if o.Metrics[metric] != n.Metrics[metric] {
				bad += fmt.Sprintf("  %s DRIFT %g -> %g", metric, o.Metrics[metric], n.Metrics[metric])
				regressions++
			}
		}
		status := "ok"
		if bad != "" {
			status = bad
		}
		fmt.Printf("%-60s %14.0f -> %14.0f ns/op  (x%.3f)  %s\n", name, oNS, nNS, ratio, status)
	}
	newNames := make([]string, 0, len(new_))
	for name := range new_ {
		if _, ok := old[name]; !ok {
			newNames = append(newNames, name)
		}
	}
	sort.Strings(newNames)
	for _, name := range newNames {
		fmt.Printf("%-60s only in %s\n", name, flag.Arg(1))
	}

	if *overheadSuffix != "" {
		regressions += diffOverhead(new_, *overheadSuffix, *maxOverhead)
	}

	fmt.Printf("benchdiff: %d compared, %d regressed (max allowed x%.2f)\n",
		compared, regressions, *maxRegress)
	if regressions > 0 {
		os.Exit(1)
	}
}

// diffOverhead compares instrumented benchmark variants against their
// base benchmarks inside one report: for every benchmark whose
// top-level segment ends in suffix and whose base twin exists, the
// variant's ns/op may exceed the base's by at most maxOverhead. A
// variant without a base twin is reported but not failed — it prices
// nothing. Returns the number of violations.
func diffOverhead(benches map[string]benchmark, suffix string, maxOverhead float64) int {
	names := make([]string, 0, len(benches))
	for name := range benches {
		names = append(names, name)
	}
	sort.Strings(names)

	violations := 0
	for _, name := range names {
		top, rest, _ := strings.Cut(name, "/")
		if !strings.HasSuffix(top, suffix) || top == suffix {
			continue
		}
		base := strings.TrimSuffix(top, suffix)
		if rest != "" {
			base += "/" + rest
		}
		o, ok := benches[base]
		v := benches[name]
		oNS, vNS := o.Metrics["ns/op"], v.Metrics["ns/op"]
		if !ok || oNS == 0 || vNS == 0 {
			fmt.Printf("%-60s no base benchmark %s to price against\n", name, base)
			continue
		}
		ratio := vNS / oNS
		status := "ok"
		if ratio > maxOverhead {
			status = "OVERHEAD REGRESSION"
			violations++
		}
		fmt.Printf("%-60s %14.0f vs %14.0f ns/op  (x%.3f overhead, max x%.2f)  %s\n",
			name, vNS, oNS, ratio, maxOverhead, status)
	}
	return violations
}

// domainMetrics returns b's metric names that are pure functions of the
// benchmark input — everything except the timing and allocation series
// the Go test runner emits and the throughput series — sorted for
// stable output.
func domainMetrics(b benchmark) []string {
	out := make([]string, 0, len(b.Metrics))
	for name := range b.Metrics {
		switch name {
		case "ns/op", "B/op", "allocs/op", "MB/s":
			continue
		}
		if strings.HasSuffix(name, "/sec") {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// throughputMetrics returns b's higher-is-better metric names: custom
// series ending in "/sec", reported by the sustained-update ingestion
// benchmarks. They are timing-derived, so they share ns/op's loose
// regression factor rather than the domain metrics' exact equality.
func throughputMetrics(b benchmark) []string {
	out := make([]string, 0, 1)
	for name := range b.Metrics {
		if strings.HasSuffix(name, "/sec") && name != "MB/s" {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func load(path string) map[string]benchmark {
	buf, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var r report
	if err := json.Unmarshal(buf, &r); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	out := make(map[string]benchmark, len(r.Benchmarks))
	for _, b := range r.Benchmarks {
		out[b.Name] = b
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
