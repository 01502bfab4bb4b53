package main

import (
	"bytes"
	"regexp"
	"sync/atomic"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func testRun(t *testing.T, workload string, trace bool) *runConfig {
	t.Helper()
	out := t.TempDir()
	scratch, err := makeScratch(out)
	if err != nil {
		t.Fatal(err)
	}
	return &runConfig{
		workload: workload, seed: 7, trace: trace, out: out, scratch: scratch,
		window: time.Second, prefix: 8, setups: 1,
	}
}

// TestManifestMatchesDeclaredMetrics keeps BENCHMARK.json and the
// tables in metrics.go the same list, name for name and unit for unit.
func TestManifestMatchesDeclaredMetrics(t *testing.T) {
	man, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []metricDef, listed []manifestMetric) {
		if len(declared) != len(listed) {
			t.Errorf("%s: metrics.go declares %d metrics, BENCHMARK.json lists %d", kind, len(declared), len(listed))
			return
		}
		for i, d := range declared {
			if !metricName.MatchString(d.Name) {
				t.Errorf("%s: name %q does not match %s", kind, d.Name, metricName)
			}
			if listed[i].Name != d.Name || listed[i].Unit != d.Unit {
				t.Errorf("%s[%d]: metrics.go has %s (%s), BENCHMARK.json has %s (%s)",
					kind, i, d.Name, d.Unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	check("end_to_end", endToEndMetrics, man.EndToEnd)
	check("per_layer", perLayerMetrics, man.PerLayer)
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, run.go %d", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if man.Workloads[i].Name != w {
			t.Errorf("workload %d: BENCHMARK.json has %s, run.go %s", i, man.Workloads[i].Name, w)
		}
	}
	layer := map[string]bool{}
	for _, d := range perLayerMetrics {
		layer[d.Name] = true
	}
	for _, name := range exactLayerMetrics {
		if !layer[name] {
			t.Errorf("exact metric %s is not a declared layer metric", name)
		}
	}
}

// TestSmoke runs every workload both ways with a 1 s window and a
// short traced prefix: no op may fail — which in a traced run includes
// shadow == server on every reply — every declared end-to-end metric
// must come out positive, and no undeclared name may be set.
func TestSmoke(t *testing.T) {
	only := workloads
	if testing.Short() {
		only = []string{workloadMixed} // the race pass: the one workload with concurrent writers of shared state
	}
	for _, workload := range only {
		for _, trace := range []bool{false, true} {
			name := workload + "/untraced"
			if trace {
				name = workload + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel() // nothing below asserts a time
				run := testRun(t, workload, trace)
				res, err := execute(run)
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 || res.attempted == 0 {
					t.Fatalf("%d of %d ops failed: %v", res.failed, res.attempted, res.firstErr)
				}
				known := map[string]bool{}
				for _, d := range declared(trace) {
					known[d.Name] = true
					if v, ok := res.metrics[d.Name]; !trace && (!ok || v.Value <= 0 || v.Samples == 0) {
						t.Errorf("end-to-end metric %s = %v from %d samples", d.Name, v.Value, v.Samples)
					}
				}
				for name := range res.metrics {
					if !known[name] {
						t.Errorf("metric %s is set but not declared", name)
					}
				}
				if line := res.line(trace); !line.Correct || len(line.Metrics) != len(declared(trace)) {
					t.Errorf("report line: correct=%v with %d metrics, want %d", line.Correct, len(line.Metrics), len(declared(trace)))
				}
				if trace {
					for _, want := range []string{"mpcd.handler_ms", "trace.coverage"} {
						if workload != workloadBulk && workload != workloadRounds && res.metrics[want].Value <= 0 {
							t.Errorf("traced run left %s at %v", want, res.metrics[want].Value)
						}
					}
				}
			})
		}
	}
}

// TestReferenceMatching pins the byte comparison the serve workloads
// rest on: the budget fields may move, nothing else may.
func TestReferenceMatching(t *testing.T) {
	body := []byte(`{"session":"s","query":"A(x) :- R(x)","path":"reused","max_load":0,"comm":0,"budget_spent":40,"budget_remaining":60,"count":1,"output":["A(1)"]}` + "\n")
	ref, resp, err := newReference(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Path != "reused" || !ref.matches(body, 40, 100) {
		t.Fatalf("a reply does not match its own reference")
	}
	later := bytes.Replace(body, []byte(`"budget_spent":40,"budget_remaining":60`), []byte(`"budget_spent":75,"budget_remaining":25`), 1)
	if !ref.matches(later, 75, 100) {
		t.Errorf("a reply that differs only in the ledger must match")
	}
	if ref.matches(later, 40, 100) {
		t.Errorf("a reply with the wrong ledger must not match")
	}
	wrongPath := bytes.Replace(body, []byte(`"path":"reused"`), []byte(`"path":"gathered"`), 1)
	if ref.matches(wrongPath, 40, 100) {
		t.Errorf("a reply on another path must not match")
	}
	corrupt := bytes.Replace(body, []byte(`A(1)`), []byte(`A(2)`), 1)
	if ref.matches(corrupt, 40, 100) {
		t.Errorf("a reply with a corrupted answer must not match")
	}
}

// TestWrongAnswersAreCounted corrupts every third reply on its way to
// the checker and demands that exactly those ops are booked as failed.
func TestWrongAnswersAreCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("needs the big-session worlds")
	}
	cases := []struct {
		workload string
		from, to string
	}{
		{workloadReuse, `"path":"reused"`, `"path":"gathered"`}, // unpredicted path
		{workloadRepartition, `"comm":40000`, `"comm":40001`},   // wrong cost
		{workloadMixed, `"output":[`, `"output":["Z(0)",`},      // corrupted answer, caught by the epoch digest
		{workloadBulk, "max load ", "max load 1"},               // wrong logical trace
	}
	for _, tc := range cases {
		t.Run(tc.workload, func(t *testing.T) {
			run := testRun(t, tc.workload, false)
			w, err := build(run, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			var calls, mangled atomic.Int64
			run.mangle = func(raw []byte) []byte {
				if calls.Add(1)%3 != 0 || !bytes.Contains(raw, []byte(tc.from)) {
					return raw
				}
				mangled.Add(1)
				return bytes.Replace(raw, []byte(tc.from), []byte(tc.to), 1)
			}
			rec := &recorder{}
			rec.open()
			w.measure(rec, run.window)
			if mangled.Load() == 0 {
				t.Fatalf("no reply contained %q; the test corrupts nothing", tc.from)
			}
			if rec.failed == 0 {
				t.Fatalf("%d replies were corrupted and none was counted as failed (%d attempted)", mangled.Load(), rec.attempted)
			}
			if tc.workload != workloadMixed && int64(rec.failed) != mangled.Load() {
				t.Errorf("%d replies corrupted, %d ops failed", mangled.Load(), rec.failed)
			}
			res := &result{attempted: rec.attempted, failed: rec.failed, metrics: metricSet{}}
			if res.line(false).Correct {
				t.Errorf("a run with failed ops reports correct=true")
			}
		})
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
}
