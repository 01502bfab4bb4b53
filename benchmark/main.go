// Command benchmark is mpcbench: a wall-clock benchmark of the serving
// and distributed paths, end to end and layer by layer. One invocation
// runs one workload from a single process, checks every answer, and
// prints every metric by name; see README.md beside this file.
//
//	bash benchmark/bench.sh -workload serve_reuse -seed 1            # end-to-end metrics
//	bash benchmark/bench.sh -workload serve_reuse -seed 1 -trace 1   # per-layer metrics + a trace file
//	bash benchmark/bench.sh -repeat 3                                # steadiness check, all workloads
//	bash benchmark/bench.sh -profile                                 # PROFILE.md on stdout
//
// bench.sh builds this module (benchmark/go.mod) and runs the binary
// from the repository root, which is where BENCHMARK.json and the
// default -out directory are looked for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

func main() {
	workload := flag.String("workload", "", fmt.Sprintf("one of %v", workloads))
	seed := flag.Int64("seed", 1, "drives data, query order and renamings")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced replay")
	out := flag.String("out", "benchmark/out", "directory for trace files and scratch data")
	repeat := flag.Int("repeat", 0, "run every workload this many times, twice over, and compare the two sets against BENCHMARK.json's bounds")
	baselinePath := flag.String("baseline", "", "with -repeat: also write the numbers to this file")
	profile := flag.Bool("profile", false, "trace serve_repartition and serve_reuse and print PROFILE.md")
	flag.Parse()

	var err error
	switch {
	case *profile:
		err = writeProfile(os.Stdout, *seed, *out)
	case *repeat > 0:
		err = repeatCheck(os.Stdout, *repeat, *seed, *seconds, *baselinePath)
	default:
		err = runOne(*workload, *seed, *seconds, *trace != 0, *out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

// runOne runs one workload and prints its report: a readable table
// with sample counts first, then — as the last line of standard
// output — the one JSON object automation reads.
func runOne(workload string, seed int64, seconds float64, trace bool, out string) error {
	scratch, err := makeScratch(out)
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	run := &runConfig{
		workload: workload, seed: seed, trace: trace, out: out, scratch: scratch,
		window: time.Duration(seconds * float64(time.Second)),
	}
	res, err := execute(run)
	if err != nil {
		return err
	}
	return res.print(os.Stdout, run)
}

func execute(run *runConfig) (*result, error) {
	if run.trace {
		res, _, err := traced(run)
		return res, err
	}
	return runUntraced(run)
}

// declared returns the metric table a run of this kind must fill.
func declared(trace bool) []metricDef {
	if trace {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// reportLine is the contract with the driver: exactly these keys.
type reportLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]reportValue `json:"metrics"`
}

type reportValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) line(trace bool) reportLine {
	line := reportLine{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]reportValue{},
	}
	for _, d := range declared(trace) {
		line.Metrics[d.Name] = reportValue{Value: r.metrics[d.Name].Value, Unit: d.Unit}
	}
	return line
}

func (r *result) print(w *os.File, run *runConfig) error {
	fmt.Fprintf(w, "workload %s  seed %d  window %v  trace %v\n", run.workload, run.seed, run.window, run.trace)
	fmt.Fprintf(w, "attempted %d  failed %d\n", r.attempted, r.failed)
	if r.firstErr != nil {
		fmt.Fprintf(w, "first failure: %v\n", r.firstErr)
	}
	if !run.trace {
		fmt.Fprintf(w, "host ran at %.3f× the reference kernel time during the window; times below are measured ÷ that\n", r.hostSlowdown)
	}
	for _, d := range declared(run.trace) {
		v := r.metrics[d.Name]
		fmt.Fprintf(w, "  %-34s %14.4f %-8s n=%d\n", d.Name, v.Value, d.Unit, v.Samples)
	}
	var undeclared []string
	known := map[string]bool{}
	for _, d := range declared(run.trace) {
		known[d.Name] = true
	}
	for name := range r.metrics {
		if !known[name] {
			undeclared = append(undeclared, name)
		}
	}
	if len(undeclared) > 0 {
		sort.Strings(undeclared)
		return fmt.Errorf("metrics set but not declared: %v", undeclared)
	}
	raw, err := json.Marshal(r.line(run.trace))
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}
