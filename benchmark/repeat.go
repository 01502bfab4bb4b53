package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// manifest is BENCHMARK.json, the part of it the steadiness check
// needs.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// child runs this binary once, as the driver would, and decodes the
// last line it prints.
func child(workload string, seed int64, seconds float64, trace int) (*reportLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var line reportLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not the report: %w", workload, seed, err)
	}
	if !line.Correct || line.Failed != 0 {
		return nil, fmt.Errorf("%s seed %d: %d of %d ops failed", workload, seed, line.Failed, line.Attempted)
	}
	return &line, nil
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive
// method) — the rule the acceptance check is written against.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// repeatCheck is the benchmark's own acceptance test. For every
// workload it makes two sets of n untraced runs, each run on another
// seed, and demands of every end-to-end metric that the quartile
// spread of a set stays within the metric's bound (set-up time
// excepted) and that the second set's median is not worse than the
// first's by more than the bound. Then, on two seeds, it runs each
// workload traced twice and demands that the exact layer metrics
// repeat exactly.
func repeatCheck(w io.Writer, n int, seed int64, seconds float64, baselinePath string) error {
	if n < 2 {
		return fmt.Errorf("-repeat needs at least 2 runs per set to have quartiles")
	}
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		return err
	}
	base := baseline{
		Note:     "medians of two sets of runs, one seed per run; spread = (Q3-Q1)/median of a set; per_layer is one traced run on the first seed",
		Go:       runtime.Version(),
		CPUs:     runtime.NumCPU(),
		Seeds:    fmt.Sprintf("%d..%d", seed, seed+int64(n)-1),
		Seconds:  seconds,
		EndToEnd: map[string]map[string]baselineEntry{},
		PerLayer: map[string]map[string]float64{},
	}
	bad := 0
	for _, wl := range man.Workloads {
		base.EndToEnd[wl.Name] = map[string]baselineEntry{}
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < n; i++ {
				line, err := child(wl.Name, seed+int64(i), seconds, 0)
				if err != nil {
					return err
				}
				for name, v := range line.Metrics {
					sets[s][name] = append(sets[s][name], v.Value)
				}
			}
		}
		fmt.Fprintf(w, "%s\n", wl.Name)
		for _, d := range man.EndToEnd {
			verdict := "ok"
			var med [2]float64
			var spread [2]float64
			for s := range sets {
				vs := sets[s][d.Name]
				if len(vs) != n {
					return fmt.Errorf("%s: metric %s missing from a run", wl.Name, d.Name)
				}
				q1, q3 := quartiles(vs)
				med[s] = median(vs)
				spread[s] = (q3 - q1) / med[s]
				if d.Name != "setup_s" && spread[s] > d.Bound {
					verdict = "SPREAD"
				}
			}
			worse := (med[1] - med[0]) / med[0]
			if d.Better == "higher" {
				worse = -worse
			}
			if worse > d.Bound {
				verdict = "DISAGREE"
			}
			if verdict != "ok" {
				bad++
			}
			base.EndToEnd[wl.Name][d.Name] = baselineEntry{Unit: d.Unit, Median: med, Spread: spread, Bound: d.Bound}
			fmt.Fprintf(w, "  %-18s median %12.4f | %12.4f %-6s spread %5.1f%% | %5.1f%%  second worse by %+5.1f%%  bound %4.1f%%  %s\n",
				d.Name, med[0], med[1], d.Unit, 100*spread[0], 100*spread[1], 100*worse, 100*d.Bound, verdict)
		}
	}
	for _, wl := range man.Workloads {
		for _, s := range []int64{seed, seed + 1} {
			a, err := child(wl.Name, s, seconds, 1)
			if err != nil {
				return err
			}
			b, err := child(wl.Name, s, seconds, 1)
			if err != nil {
				return err
			}
			if s == seed {
				base.PerLayer[wl.Name] = map[string]float64{}
				for name, v := range a.Metrics {
					base.PerLayer[wl.Name][name] = v.Value
				}
			}
			for _, name := range exactLayerMetrics {
				if a.Metrics[name].Value != b.Metrics[name].Value {
					bad++
					fmt.Fprintf(w, "%s seed %d: exact metric %s read %v, then %v\n",
						wl.Name, s, name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
		}
		fmt.Fprintf(w, "%s: exact layer metrics repeat on seeds %d and %d\n", wl.Name, seed, seed+1)
	}
	if baselinePath != "" {
		raw, err := json.MarshalIndent(&base, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(baselinePath, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric × workload pairs outside their bounds", bad)
	}
	return nil
}

// baseline is what -baseline writes: the numbers of one -repeat, kept
// beside the benchmark as the reference later changes are read against.
type baseline struct {
	Note     string                              `json:"note"`
	Go       string                              `json:"go"`
	CPUs     int                                 `json:"cpus"`
	Seeds    string                              `json:"seeds"`
	Seconds  float64                             `json:"seconds"`
	EndToEnd map[string]map[string]baselineEntry `json:"end_to_end"`
	PerLayer map[string]map[string]float64       `json:"per_layer"`
}

type baselineEntry struct {
	Unit   string     `json:"unit"`
	Median [2]float64 `json:"median"`
	Spread [2]float64 `json:"spread"`
	Bound  float64    `json:"bound"`
}
