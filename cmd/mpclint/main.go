// Command mpclint runs the repo's static-analysis suite: nine
// analyzers enforcing the determinism and concurrency invariants the
// reproduced theorems depend on (see internal/lint), including the
// interprocedural nondeterminism-taint analysis and the suppression
// audit.
//
// Usage:
//
//	mpclint [-json | -github] [-list] [-analyzers a,b] [dir | ./...]
//
// The argument names the module to lint: a module root directory or a
// ./... pattern rooted at it (the suite always analyzes the whole
// module; per-package narrowing would let violations hide). With no
// argument the module rooted at the current directory is linted.
//
// Output modes:
//
//	(default)  one "file:line:col: [analyzer] message" line per finding
//	-json      a JSON array of diagnostics
//	-github    GitHub Actions workflow commands (::error annotations),
//	           so findings surface inline on pull-request diffs
//
// Exit status: 0 if clean, 1 if any diagnostic fired, 2 on usage or
// load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mpclogic/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mpclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	githubOut := fs.Bool("github", false, "emit diagnostics as GitHub Actions ::error annotations")
	list := fs.Bool("list", false, "list the analyzers and exit")
	names := fs.String("analyzers", "", "comma-separated analyzer names to run (default: all)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: mpclint [-json | -github] [-list] [-analyzers a,b] [dir | ./...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jsonOut && *githubOut {
		fmt.Fprintf(stderr, "mpclint: -json and -github are mutually exclusive\n")
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-22s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	root := "."
	switch fs.NArg() {
	case 0:
	case 1:
		root = fs.Arg(0)
		// Accept the conventional go-tool spelling "mpclint ./...":
		// the suite is module-scoped, so the pattern reduces to its
		// root directory.
		root = strings.TrimSuffix(root, "...")
		root = strings.TrimSuffix(root, "/")
		if root == "" {
			root = "."
		}
	default:
		fs.Usage()
		return 2
	}

	analyzers := lint.Analyzers()
	if *names != "" {
		analyzers = nil
		for _, name := range strings.Split(*names, ",") {
			name = strings.TrimSpace(name)
			a, ok := lint.AnalyzerByName(name)
			if !ok {
				fmt.Fprintf(stderr, "mpclint: unknown analyzer %q (use -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	mod, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintf(stderr, "mpclint: %v\n", err)
		return 2
	}
	diags := lint.Run(mod, analyzers)

	switch {
	case *jsonOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(stderr, "mpclint: %v\n", err)
			return 2
		}
	case *githubOut:
		for _, d := range diags {
			fmt.Fprintln(stdout, githubAnnotation(d))
		}
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "mpclint: %d diagnostic(s) in %s\n", len(diags), mod.Path)
		}
		return 1
	}
	return 0
}

// githubAnnotation renders one diagnostic as a GitHub Actions workflow
// command, which the Actions runner turns into an inline annotation on
// the pull-request diff. Property values are escaped per the workflow-
// command grammar (%, CR, LF always; comma and colon in properties).
func githubAnnotation(d lint.Diagnostic) string {
	return fmt.Sprintf("::error file=%s,line=%d,col=%d,title=%s::%s",
		escapeProperty(d.File), d.Line, d.Col,
		escapeProperty("mpclint "+d.Analyzer), escapeData(d.Message))
}

func escapeData(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

func escapeProperty(s string) string {
	s = escapeData(s)
	s = strings.ReplaceAll(s, ":", "%3A")
	s = strings.ReplaceAll(s, ",", "%2C")
	return s
}
