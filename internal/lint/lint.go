// Package lint is mpclint's engine: a small static-analysis driver and
// a suite of repo-specific analyzers enforcing the determinism and
// concurrency invariants this reproduction depends on.
//
// The paper's central claims — parallel-correctness (a one-round
// distributed evaluation equals the sequential result) and
// coordination-free consistency (every fair run of a transducer
// network converges to the same output) — are *determinism* theorems.
// An implementation can silently forfeit them through a handful of
// classic Go hazards: unsorted map iteration feeding output, unseeded
// global randomness, unjoined or racing goroutine fan-out, and
// wall-clock reads or sleeps standing in for the virtual clock. The
// analyzers in this package mechanically forbid those hazards, each
// with one rule under one name: wallclock-free owns the clock and the
// global random source, goroutine-hygiene owns every go statement, and
// nondet-taint reports where such a value flows, not where it is read.
//
// The package is written against the standard library only (go/ast,
// go/parser, go/token, go/types); it adds no module dependencies and
// works offline.
//
// Diagnostics can be suppressed with a comment on the offending line
// or the line directly above it:
//
//	//lint:ignore <analyzer-name> reason
//	//lint:allow <analyzer-name> reason  (alias for lint:ignore)
//	//lint:sorted reason                 (alias for ignoring mapiter-determinism)
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding, addressed by file position. File is
// relative to the module root, so output is stable across machines.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named check run over every loaded package. An
// analyzer with a nil Run is driver-implemented (suppress-audit): it
// participates in selection and listing but has no per-package pass of
// its own.
type Analyzer struct {
	Name string // kebab-case identifier, used in output and suppressions
	Doc  string // one-line description of the guarded invariant
	Run  func(*Pass)
}

// Config tunes where nondet-taint checks sinks; every other analyzer
// applies to all packages (wallclock-free and error-discard exempt
// binaries).
type Config struct {
	// EnginePackages are package names whose evaluation results must be
	// pure functions of their inputs: nondet-taint treats their
	// exported entry points' results as sinks.
	EnginePackages []string

	// SinkPackages are additional package names (beyond the engine)
	// where nondet-taint checks sinks: the measurement and persistence
	// layers whose emitted bytes must be run-to-run identical.
	SinkPackages []string
}

// DefaultConfig returns the repo's configuration: the engine packages
// are those on the evaluation path whose outputs the paper's theorems
// constrain; sinks extend to the measurement/persistence layers.
func DefaultConfig() Config {
	return Config{
		EnginePackages: []string{
			"rel", "cq", "mpc", "hypercube", "datalog", "transducer", "gym",
		},
		SinkPackages: []string{
			"experiments", "sweep", "policy", "lint", "main",
		},
	}
}

func (c Config) isEngine(pkgName string) bool {
	for _, n := range c.EnginePackages {
		if n == pkgName {
			return true
		}
	}
	return false
}

// isSinkScope reports whether nondet-taint should treat sinks in
// pkgName as live: engine packages plus the configured sink packages.
func (c Config) isSinkScope(pkgName string) bool {
	if c.isEngine(pkgName) {
		return true
	}
	for _, n := range c.SinkPackages {
		if n == pkgName {
			return true
		}
	}
	return false
}

// Pass carries one (package, analyzer) run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	Config   Config

	diags []Diagnostic
	root  string     // module root, for relativizing file paths
	taint *taintData // module-wide interprocedural results (nondet-taint only)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	file := position.Filename
	if rel, err := filepath.Rel(p.root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     file,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MapIterAnalyzer,
		GoroutineAnalyzer,
		LockAnalyzer,
		ErrDiscardAnalyzer,
		WallclockAnalyzer,
		NondetTaintAnalyzer,
		SuppressAuditAnalyzer,
	}
}

// AnalyzerByName returns the named analyzer from the suite.
func AnalyzerByName(name string) (*Analyzer, bool) {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// Run executes the analyzers over the module's packages and returns
// all unsuppressed diagnostics sorted by (file, line, col, analyzer).
//
// When nondet-taint is selected, its interprocedural phase (call graph
// + bottom-up summaries) runs once for the whole module before the
// per-package passes consume the results. When suppress-audit is
// selected, each package's directives are audited after its other
// analyzers have had the chance to use them; audit diagnostics cannot
// themselves be suppressed.
func Run(mod *Module, analyzers []*Analyzer, cfg Config) []Diagnostic {
	var td *taintData
	auditing := false
	for _, a := range analyzers {
		switch a.Name {
		case NondetTaintAnalyzer.Name:
			td = computeTaint(mod, cfg)
		case SuppressAuditAnalyzer.Name:
			auditing = true
		}
	}
	var out []Diagnostic
	for _, pkg := range mod.Packages {
		sup := collectSuppressions(mod.Fset, pkg)
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     mod.Fset,
				Pkg:      pkg,
				Config:   cfg,
				root:     mod.Root,
				taint:    td,
			}
			a.Run(pass)
			for _, d := range pass.diags {
				if sup.allows(a.Name, d.File, d.Line) {
					continue
				}
				out = append(out, d)
			}
		}
		if auditing {
			pass := &Pass{
				Analyzer: SuppressAuditAnalyzer,
				Fset:     mod.Fset,
				Pkg:      pkg,
				Config:   cfg,
				root:     mod.Root,
			}
			auditSuppressions(pass, sup, analyzers)
			out = append(out, pass.diags...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// ---- shared type helpers used by the analyzers ----

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorType)
}

// pkgFunc resolves call to a package-level function and returns the
// package import path and function name ("math/rand", "Intn").
func pkgFunc(info *types.Info, call *ast.CallExpr) (string, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// methodCallee resolves call to the invoked method object, or nil.
func methodCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	return fn
}

// namedSyncType reports whether t (after stripping pointers) is the
// named sync type sync.<name>.
func namedSyncType(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == name
}

// isMapType reports whether e has map type.
func isMapType(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// objectOf returns the object an identifier denotes (use or def).
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// funcBodies calls visit for every function body in the file: each
// top-level declaration and every function literal, each visited
// exactly once as its own scope.
func funcBodies(f *ast.File, visit func(ft *ast.FuncType, body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				visit(fn.Type, fn.Body)
			}
		case *ast.FuncLit:
			visit(fn.Type, fn.Body)
		}
		return true
	})
}

// walkScope walks stmts of one function scope without descending into
// nested function literals (which are their own scopes). The go
// statement itself is still delivered before the cut.
func walkScope(body ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == body {
			return fn(n)
		}
		if _, ok := n.(*ast.FuncLit); ok {
			fn(n)
			return false
		}
		return fn(n)
	})
}
