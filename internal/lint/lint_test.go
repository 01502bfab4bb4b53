package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureModule loads the fixture module under testdata/src once per
// test that needs it.
func fixtureModule(t *testing.T) *Module {
	t.Helper()
	mod, err := LoadModule(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("loading fixture module: %v", err)
	}
	return mod
}

// TestFixtureDiagnostics runs the full suite over the fixture module
// and compares every diagnostic, in order, against the golden file.
func TestFixtureDiagnostics(t *testing.T) {
	mod := fixtureModule(t)
	diags := Run(mod, Analyzers())

	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	got := b.String()

	golden := filepath.Join("testdata", "golden", "diagnostics.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics differ from golden file.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestFixtureCoverage asserts structural properties the golden file
// alone would not make obvious: every analyzer fires at least once on
// the fixtures, no hazard is reported twice, and the clean functions
// stay clean.
func TestFixtureCoverage(t *testing.T) {
	mod := fixtureModule(t)
	diags := Run(mod, Analyzers())

	fired := make(map[string]int)
	for _, d := range diags {
		fired[d.Analyzer]++
	}
	for _, a := range Analyzers() {
		if fired[a.Name] == 0 {
			t.Errorf("analyzer %s fired zero diagnostics on the fixtures", a.Name)
		}
	}

	// One rule per hazard: no position draws two diagnostics from the
	// per-package analyzers. nondet-taint is excepted — its findings
	// are flows to a sink, reported at the sink.
	at := make(map[string]Diagnostic)
	for _, d := range diags {
		if d.Analyzer == "nondet-taint" {
			continue
		}
		pos := fmt.Sprintf("%s:%d:%d", d.File, d.Line, d.Col)
		if prev, dup := at[pos]; dup {
			t.Errorf("%s drew two diagnostics: [%s] and [%s]", pos, prev.Analyzer, d.Analyzer)
		}
		at[pos] = d
	}

	// The cmd/tool fixture must be exempt from error-discard and
	// wallclock-free (binaries may time things and discard top-level
	// errors), but nondet-taint still applies: package main is a sink
	// scope, and its map-order leak must be caught.
	taintUnderCmd := false
	for _, d := range diags {
		if !strings.HasPrefix(d.File, "cmd/") {
			continue
		}
		switch d.Analyzer {
		case "error-discard", "wallclock-free":
			t.Errorf("diagnostic under exempt cmd/ tree: %s", d)
		case "nondet-taint":
			taintUnderCmd = true
		}
	}
	if !taintUnderCmd {
		t.Error("nondet-taint should flag the map-order leak in cmd/tool")
	}

	// The two-call-boundary flow is the tentpole: the witness chain
	// must name both intermediate callees from the other file.
	pinned := false
	sanitized := false
	for _, d := range diags {
		if d.Analyzer != "nondet-taint" {
			continue
		}
		if strings.Contains(d.Message, "via describe → label") &&
			strings.Contains(d.Message, "taint/helpers.go:13") {
			pinned = true
		}
		// ShowSorted (line 29) and CleanKeys must stay silent: the
		// sort.Strings inside sortedKeys and the transitive sanitizes
		// bit of sortInPlace both launder the order taint.
		if d.File == "taint/taint.go" && (d.Line == 29 || (d.Line >= 33 && d.Line <= 41)) {
			sanitized = true
		}
	}
	if !pinned {
		t.Error("missing two-call-boundary witness chain (describe → label) in nondet-taint output")
	}
	if sanitized {
		t.Error("sanitized flows (ShowSorted / CleanKeys) must not be flagged")
	}
}

// TestAnalyzerSelection checks that running a single analyzer yields
// only its diagnostics.
func TestAnalyzerSelection(t *testing.T) {
	mod := fixtureModule(t)
	a, ok := AnalyzerByName("lock-discipline")
	if !ok {
		t.Fatal("lock-discipline analyzer missing")
	}
	diags := Run(mod, []*Analyzer{a})
	if len(diags) == 0 {
		t.Fatal("lock-discipline found nothing on the fixtures")
	}
	for _, d := range diags {
		if d.Analyzer != "lock-discipline" {
			t.Errorf("unexpected analyzer %q in filtered run", d.Analyzer)
		}
		if !strings.HasPrefix(d.File, "locks/") {
			t.Errorf("lock-discipline fired outside the locks fixture package: %s", d)
		}
	}
}

// TestRepoClean is the enforcement test: the repository itself must
// lint clean. Any new violation of the determinism, randomness,
// concurrency, lock, or error-handling rules fails tier-1. Short mode
// (the -race pass) skips it: this package starts no goroutine, so the
// race detector has nothing to check here, and the full run and
// mpclint itself lint the repository anyway.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo lint runs in the full test pass and in mpclint")
	}
	mod, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("loading repo module: %v", err)
	}
	if mod.Path != "mpclogic" {
		t.Fatalf("unexpected module path %q", mod.Path)
	}
	diags := Run(mod, Analyzers())
	for _, d := range diags {
		t.Errorf("repo must lint clean: %s", d)
	}
}

// TestConfigEngineMatching pins the engine package list to the
// packages whose outputs the paper's theorems constrain.
func TestConfigEngineMatching(t *testing.T) {
	for _, name := range []string{"rel", "cq", "mpc", "hypercube", "datalog", "transducer", "gym"} {
		if !isEngine(name) {
			t.Errorf("%s should be an engine package", name)
		}
	}
	if isEngine("experiments") || isEngine("workload") {
		t.Error("measurement-layer packages must not be on the engine list")
	}
	for _, name := range []string{"mpc", "experiments", "sweep", "policy", "main"} {
		if !isSinkScope(name) {
			t.Errorf("%s should be in nondet-taint sink scope", name)
		}
	}
	if isSinkScope("workload") {
		t.Error("workload generation is not a sink scope")
	}
}
