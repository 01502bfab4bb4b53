package lint

import (
	"go/ast"
)

// WallclockAnalyzer forbids ambient nondeterminism in library code:
// no time.Now / time.Since / time.Until reads, no time.Sleep /
// time.After / time.Tick / time.NewTimer / time.NewTicker /
// time.AfterFunc delays or timeouts, and no top-level math/rand
// function (which draws from the global, process-wide source).
//
// Determinism is a repo invariant, and wall time is its quietest
// enemy: a sleep-based timeout turns scheduling jitter into behavior,
// and a timestamp turns the clock into an input nobody seeded. Delays
// and timeouts in the engine must go through an injectable virtual
// clock instead — the transducer runtime's step counter and the MPC
// fault-tolerance layer's virtual ticks (mpc.RoundStats.
// VirtualMakespan, retry backoff) are the sanctioned patterns: both
// make time an explicit, replayable part of the execution. The global
// random source is the same hazard in another guise; the sanctioned
// pattern is an explicit *rand.Rand built from rand.NewSource(seed),
// as internal/workload and the transducer network scheduler do.
//
// Binaries (package main, anything under a cmd/ segment) and tests
// are exempt: process-level timing at the top of a program is policy,
// not evaluation. The measurement layer's stopwatch is the one
// legitimate library use and carries //lint:allow wallclock-free
// annotations where it reads the clock.
//
// One scoped allowance: wall-clock reads nested in the arguments of a
// SetDeadline / SetReadDeadline / SetWriteDeadline method call are
// permitted. Socket deadlines are liveness bounds on connection I/O —
// `conn.SetDeadline(time.Now().Add(timeout))` is the only way the net
// package spells "bounded read" — and they never feed logical time:
// a deadline influences WHEN an exchange fails, never WHAT a
// successful exchange computes. Clock reads that escape the deadline
// argument (stored, returned, compared) are still flagged.
var WallclockAnalyzer = &Analyzer{
	Name: "wallclock-free",
	Doc:  "library code must not read the wall clock, sleep, or draw from the global random source",
	Run:  runWallclock,
}

// randConstructors are the math/rand functions that merely build
// explicitly seeded generators; they are the fix, not the hazard.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

// wallclockFuncs are the package-level time functions that read or
// wait on the wall clock. Pure constructors and conversions
// (time.Date, time.Unix, time.ParseDuration, ...) are functions of
// their arguments and stay allowed.
var wallclockFuncs = map[string]string{
	"Now":       "reads the wall clock",
	"Since":     "reads the wall clock",
	"Until":     "reads the wall clock",
	"Sleep":     "blocks on wall time",
	"After":     "blocks on wall time",
	"Tick":      "blocks on wall time",
	"NewTimer":  "blocks on wall time",
	"NewTicker": "blocks on wall time",
	"AfterFunc": "blocks on wall time",
}

// deadlineSetters are the net-package deadline methods whose arguments
// may read the wall clock: connection I/O liveness only.
var deadlineSetters = map[string]bool{
	"SetDeadline":      true,
	"SetReadDeadline":  true,
	"SetWriteDeadline": true,
}

// deadlineArgSpans returns a predicate reporting whether a node sits
// inside the argument list of a deadline-setter method call — the one
// context where a clock read is a socket liveness bound, not logical
// time. Only method calls qualify (a package-level function that
// happens to be named SetDeadline still gets no allowance).
func deadlineArgSpans(pass *Pass, f *ast.File) func(ast.Node) bool {
	type span struct{ lo, hi int }
	var deadlineArgs []span
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !deadlineSetters[sel.Sel.Name] {
			return true
		}
		if _, _, isPkgFunc := pkgFunc(pass.Pkg.Info, call); isPkgFunc {
			return true
		}
		for _, a := range call.Args {
			deadlineArgs = append(deadlineArgs, span{int(a.Pos()), int(a.End())})
		}
		return true
	})
	return func(n ast.Node) bool {
		for _, s := range deadlineArgs {
			if int(n.Pos()) >= s.lo && int(n.End()) <= s.hi {
				return true
			}
		}
		return false
	}
}

func runWallclock(pass *Pass) {
	// Same exemption as error-discard: binaries may time things;
	// library code may not.
	if exemptFromErrDiscard(pass.Pkg) {
		return
	}
	for _, f := range pass.Pkg.Files {
		inDeadlineArg := deadlineArgSpans(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			path, name, ok := pkgFunc(pass.Pkg.Info, call)
			if !ok {
				return true
			}
			switch path {
			case "math/rand", "math/rand/v2":
				if !randConstructors[name] {
					pass.Reportf(call.Pos(), "call to rand.%s uses the global random source in library code; thread a *rand.Rand built from an explicit seed", name)
				}
			case "time":
				if why, bad := wallclockFuncs[name]; bad && !inDeadlineArg(call) {
					pass.Reportf(call.Pos(), "time.%s %s in library code; delays and timeouts must go through the injectable virtual clock (or annotate a measurement-layer stopwatch with //lint:allow wallclock-free)", name, why)
				}
			}
			return true
		})
	}
}
