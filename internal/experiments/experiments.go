// Package experiments regenerates every checkable artifact of the
// paper — both figures, all numbered examples, and the quantitative
// load-bound claims of Sections 3–5 — as self-verifying experiments.
// Each experiment prints the paper's claim next to what this
// implementation measures and judges whether the claim's *shape*
// holds. The cmd/experiments binary runs them; EXPERIMENTS.md records
// their output.
//
// Experiments are declared as Defs: a header (ID, title, claim) plus a
// list of Cells, one per independent parameter point. Cells from all
// experiments are flattened into one job list and executed by the
// internal/sweep worker pool; because cell closures are deterministic
// and sweep merges results in declared order, the rendered output of
// RunSweep(workers) is byte-identical for every worker count.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mpclogic/internal/sweep"
)

// cellRetries is the fixed per-cell retry budget. Cells are
// deterministic, so a retry only matters for panics with an external
// cause; keeping the budget fixed keeps Attempts — and therefore the
// sweep stats — identical run to run.
const cellRetries = 1

// Report is one experiment's merged outcome. Wall is measurement-only
// and deliberately excluded from String(): rendered reports must be a
// pure function of the experiment definitions.
type Report struct {
	ID    string
	Title string
	Claim string // what the paper asserts
	Rows  []string
	Pass  bool
	Wall  time.Duration // total wall clock of this experiment's cells
}

func (r *Report) String() string {
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s [%s]\n", r.ID, r.Title, status)
	fmt.Fprintf(&b, "   paper: %s\n", r.Claim)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "   %s\n", row)
	}
	return b.String()
}

// Result is what one cell's run closure returns: its report rows and
// its verdict. A fresh Result passes until a check fails.
type Result struct {
	Rows []string
	Pass bool
}

func newResult() *Result {
	return &Result{Pass: true}
}

func (r *Result) rowf(format string, args ...any) {
	r.Rows = append(r.Rows, fmt.Sprintf(format, args...))
}

// Cell is one experiment × parameter-point job: the unit the sweep
// scheduler fans out. Run must be deterministic and self-contained
// (build your own dict/instances — cells from the same experiment may
// run concurrently on different workers).
type Cell struct {
	Params string // short parameter label, e.g. "m=8000"
	Run    func() (*Result, error)
}

// Def declares one experiment: identity, the paper's claim, optional
// preamble rows (table headers), and its cells in row order.
type Def struct {
	ID    string // registry ID, e.g. "E32-hypercube"; sorts the sweep
	Name  string // short report name, e.g. "E32"
	Title string
	Claim string
	Pre   []string // rows emitted before any cell's rows
	Cells []Cell
}

var registry []Def

func register(d Def) {
	registry = append(registry, d)
}

// All returns the registered experiments sorted by ID.
func All() []Def {
	out := append([]Def(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SweepStats summarizes one sweep's execution. Everything except Wall
// is deterministic.
type SweepStats struct {
	Experiments  int
	Cells        int
	ErroredCells int           // cells whose closure returned an error or panicked
	Retried      int           // extra attempts used across all cells
	Wall         time.Duration // summed per-cell wall clock
}

// cellOut is the sweep job payload: a cell result annotated with the
// wall clock its run took. The duration never reaches a report row.
type cellOut struct {
	rows []string
	pass bool
	wall time.Duration
}

// timedCell wraps a cell closure with the package's only stopwatch.
// Timing is measurement-only: the verdict and rows are established by
// the cell itself, and the duration is reported out-of-band (stderr,
// SweepStats) so rendered reports stay deterministic.
func timedCell(run func() (*Result, error)) func() (*cellOut, error) {
	return func() (*cellOut, error) {
		start := time.Now() //lint:allow wallclock-free measurement-layer stopwatch
		res, err := run()
		wall := time.Since(start) //lint:allow wallclock-free measurement-layer stopwatch
		if err != nil {
			return nil, err
		}
		return &cellOut{rows: res.Rows, pass: res.Pass, wall: wall}, nil
	}
}

// RunSweep executes the given experiments' cells on a sweep.Run worker
// pool and merges them into one Report per experiment, in the order
// defs was given. Erroring or panicking cells become failing rows of
// their experiment instead of aborting the sweep. The rendered reports
// are byte-identical for every workers value.
func RunSweep(workers int, defs []Def) ([]*Report, SweepStats) {
	var jobs []sweep.Job[*cellOut]
	for _, d := range defs {
		for _, c := range d.Cells {
			jobs = append(jobs, sweep.Job[*cellOut]{
				Name: d.ID + "/" + c.Params,
				Run:  timedCell(c.Run),
			})
		}
	}
	results, err := sweep.Run(workers, jobs, sweep.WithRetries(cellRetries))
	if err != nil {
		// The job list above has no dependencies, so a graph error is a
		// harness bug, not an experiment outcome.
		panic(fmt.Sprintf("experiments: malformed sweep: %v", err))
	}

	stats := SweepStats{Experiments: len(defs), Cells: len(jobs)}
	reports := make([]*Report, 0, len(defs))
	idx := 0
	for _, d := range defs {
		rep := &Report{
			ID:    d.Name,
			Title: d.Title,
			Claim: d.Claim,
			Rows:  append([]string(nil), d.Pre...),
			Pass:  true,
		}
		for _, c := range d.Cells {
			r := results[idx]
			idx++
			stats.Retried += maxInt(0, r.Attempts-1)
			if r.Err != nil {
				rep.Rows = append(rep.Rows, fmt.Sprintf("cell %s: error: %v", c.Params, r.Err))
				rep.Pass = false
				stats.ErroredCells++
				continue
			}
			rep.Rows = append(rep.Rows, r.Value.rows...)
			rep.Pass = rep.Pass && r.Value.pass
			rep.Wall += r.Value.wall
			stats.Wall += r.Value.wall
		}
		reports = append(reports, rep)
	}
	return reports, stats
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
