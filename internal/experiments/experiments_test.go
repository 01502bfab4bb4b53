package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// The full sweep takes ~20s; share one sequential reference run
// between the pass gate and the byte-identity tests.
var (
	seqOnce    sync.Once
	seqReports []*Report
)

func sequentialReports() []*Report {
	seqOnce.Do(func() {
		seqReports, _ = RunSweep(1, All())
	})
	return seqReports
}

// renderAll is exactly what cmd/experiments writes to stdout.
func renderAll(reports []*Report) string {
	var b strings.Builder
	failed := 0
	for _, rep := range reports {
		fmt.Fprintln(&b, rep)
		if !rep.Pass {
			failed++
		}
	}
	fmt.Fprintf(&b, "%d experiments run, %d failed\n", len(reports), failed)
	return b.String()
}

// Every registered experiment must run and PASS: the experiments are
// the repository's executable claims about the paper.
func TestAllExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	exps := All()
	if len(exps) < 12 {
		t.Fatalf("only %d experiments registered", len(exps))
	}
	reports := sequentialReports()
	if len(reports) != len(exps) {
		t.Fatalf("%d experiments produced %d reports", len(exps), len(reports))
	}
	for i, d := range exps {
		rep := reports[i]
		t.Run(d.ID, func(t *testing.T) {
			if !rep.Pass {
				t.Errorf("experiment failed:\n%s", rep)
			}
			if rep.Claim == "" || len(rep.Rows) == 0 {
				t.Errorf("report incomplete: %+v", rep)
			}
			if !strings.Contains(rep.String(), rep.ID) {
				t.Errorf("report rendering broken")
			}
		})
	}
}

// The tentpole invariant: the parallel sweep's rendered output is
// byte-identical to the sequential reference for every worker count —
// the parallel-correctness property, machine-checked on our own
// harness. N covers 1 (the reference itself), 2, and GOMAXPROCS per
// the acceptance criteria, plus 4 so multi-worker merging is
// exercised even on single-core runners.
func TestSweepByteIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	want := renderAll(sequentialReports())
	counts := []int{2, 4, runtime.GOMAXPROCS(0)}
	tried := map[int]bool{1: true}
	for _, workers := range counts {
		if tried[workers] {
			continue
		}
		tried[workers] = true
		reports, stats := RunSweep(workers, All())
		got := renderAll(reports)
		if got != want {
			t.Fatalf("workers=%d output diverged from sequential run\n%s", workers, firstDiff(want, got))
		}
		if stats.ErroredCells != 0 {
			t.Errorf("workers=%d: %d cells errored", workers, stats.ErroredCells)
		}
	}
}

func firstDiff(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  sequential: %q\n  parallel:   %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("length differs: %d vs %d lines", len(wl), len(gl))
}

func TestByID(t *testing.T) {
	if _, ok := ByID("F1-transfer-vs-containment"); !ok {
		t.Errorf("F1 not registered")
	}
	if _, ok := ByID("nope"); ok {
		t.Errorf("phantom experiment found")
	}
}

// Erroring and panicking cells must become failing rows of their own
// experiment — deterministically, and without disturbing siblings.
func TestRunSweepFailureSemantics(t *testing.T) {
	defs := []Def{
		{
			ID: "A-mixed", Name: "A", Title: "mixed", Claim: "c",
			Pre: []string{"header"},
			Cells: []Cell{
				{Params: "ok", Run: func() (*Result, error) {
					res := newResult()
					res.rowf("fine")
					return res, nil
				}},
				{Params: "err", Run: func() (*Result, error) {
					return nil, errors.New("cell exploded")
				}},
				{Params: "panic", Run: func() (*Result, error) {
					panic("cell panicked hard")
				}},
			},
		},
		{
			ID: "B-clean", Name: "B", Title: "clean", Claim: "c",
			Cells: []Cell{{Params: "ok", Run: func() (*Result, error) {
				res := newResult()
				res.rowf("untouched")
				return res, nil
			}}},
		},
	}
	var rendered []string
	for _, workers := range []int{1, 3} {
		reports, stats := RunSweep(workers, defs)
		if len(reports) != 2 {
			t.Fatalf("want 2 reports, got %d", len(reports))
		}
		a, b := reports[0], reports[1]
		if a.Pass {
			t.Errorf("experiment with failing cells passed:\n%s", a)
		}
		if !b.Pass || len(b.Rows) != 1 || b.Rows[0] != "untouched" {
			t.Errorf("sibling experiment disturbed:\n%s", b)
		}
		if a.Rows[0] != "header" || a.Rows[1] != "fine" {
			t.Errorf("pre/ok rows wrong: %q", a.Rows)
		}
		joined := strings.Join(a.Rows, "\n")
		if !strings.Contains(joined, "cell err: error: cell exploded") {
			t.Errorf("error row missing: %q", a.Rows)
		}
		if !strings.Contains(joined, "cell panicked hard") {
			t.Errorf("panic row missing: %q", a.Rows)
		}
		if stats.ErroredCells != 2 {
			t.Errorf("want 2 errored cells, got %d", stats.ErroredCells)
		}
		// Failing cells are retried once (cellRetries), deterministically.
		if stats.Retried != 2*cellRetries {
			t.Errorf("want %d retries, got %d", 2*cellRetries, stats.Retried)
		}
		rendered = append(rendered, renderAll(reports))
	}
	if rendered[0] != rendered[1] {
		t.Errorf("failure rows differ across worker counts:\n%s\nvs\n%s", rendered[0], rendered[1])
	}
}

// The registry must declare unique IDs and well-formed defs; cells
// must have distinct labels within an experiment so error rows are
// unambiguous.
func TestRegistryWellFormed(t *testing.T) {
	ids := map[string]bool{}
	for _, d := range All() {
		if d.ID == "" || d.Name == "" || d.Title == "" || d.Claim == "" {
			t.Errorf("incomplete def: %+v", d)
		}
		if ids[d.ID] {
			t.Errorf("duplicate experiment ID %q", d.ID)
		}
		ids[d.ID] = true
		if len(d.Cells) == 0 {
			t.Errorf("experiment %s has no cells", d.ID)
		}
		params := map[string]bool{}
		for _, c := range d.Cells {
			if c.Params == "" || c.Run == nil {
				t.Errorf("experiment %s has a malformed cell %q", d.ID, c.Params)
			}
			if params[c.Params] {
				t.Errorf("experiment %s reuses cell label %q", d.ID, c.Params)
			}
			params[c.Params] = true
		}
	}
}

// ByID returns one experiment.
func ByID(id string) (Def, bool) {
	for _, d := range registry {
		if d.ID == id {
			return d, true
		}
	}
	return Def{}, false
}
