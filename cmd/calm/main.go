// Command calm classifies a Datalog program in the Figure 2 hierarchy
// (M / Mdistinct / Mdisjoint via its effective syntax), explains the
// coordination-free evaluation strategy CALM prescribes, and runs that
// strategy — the row of transducer.Strategies it printed — on a
// simulated asynchronous transducer network under the row's working
// policy. Only a program outside the hierarchy reaches the coordinated
// fallback; control= in the run line counts its protocol messages.
//
// Usage:
//
//	calm -program prog.dl -out TC -facts edges.txt -nodes 4
//
// where prog.dl holds one rule per line and edges.txt holds one fact
// per line (e.g. "E(a,b)").
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mpclogic/internal/core"
	"mpclogic/internal/cq"
	"mpclogic/internal/datalog"
	"mpclogic/internal/rel"
	"mpclogic/internal/transducer"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("calm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	progFile := fs.String("program", "", "Datalog program file (required)")
	outRel := fs.String("out", "", "output relation (required)")
	factsFile := fs.String("facts", "", "EDB facts file, one fact per line")
	nodes := fs.Int("nodes", 4, "network size")
	seed := fs.Int64("seed", 1, "scheduler seed (message delay nondeterminism)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *progFile == "" || *outRel == "" {
		fmt.Fprintln(stderr, "calm: -program and -out are required")
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "calm: %v\n", err)
		return 1
	}
	d := rel.NewDict()
	src, err := os.ReadFile(*progFile)
	if err != nil {
		return fail(err)
	}
	prog, err := datalog.Parse(d, string(src))
	if err != nil {
		return fail(err)
	}
	cls := datalog.Classify(prog)
	row := core.StrategyFor(cls.MonotonicityClass())
	fmt.Fprintf(stdout, "program (%d rules), strata=%d\n", len(prog.Rules), cls.Strata)
	fmt.Fprintf(stdout, "  positive=%v semi-positive=%v connected=%v semi-connected=%v\n",
		cls.Positive, cls.SemiPositive, cls.Connected, cls.SemiConnected)
	fmt.Fprintf(stdout, "  hierarchy class: %s\n", row.Class)
	fmt.Fprintf(stdout, "  strategy: %s\n", row)

	edb := rel.NewInstance()
	if *factsFile != "" {
		if err := readFacts(d, *factsFile, edb); err != nil {
			return fail(err)
		}
	}
	if edb.IsEmpty() {
		fmt.Fprintln(stdout, "no facts given; classification only")
		return 0
	}

	want, err := datalog.EvalQuery(prog, edb, *outRel)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "centralized %s: %d facts\n", *outRel, want.Len())

	// Run the row's strategy under its working policy on an
	// asynchronous network.
	q := func(i *rel.Instance) *rel.Instance {
		out, err := datalog.EvalQuery(prog, i, *outRel)
		if err != nil {
			return rel.NewInstance()
		}
		return out
	}
	n, err := transducer.Load(row.Program(q, inputSchema(prog, edb)), row.Policy(*nodes), edb, transducer.WithSeed(*seed))
	if err != nil {
		return fail(err)
	}
	stats, err := n.Run()
	if err != nil {
		return fail(err)
	}
	got := n.Output()
	fmt.Fprintf(stdout, "distributed run: %d facts, sent=%d control=%d delivered=%d steps=%d\n",
		got.Len(), stats.Sent, stats.ControlSent, stats.Delivered, stats.Steps)
	if !got.Equal(want) {
		fmt.Fprintln(stdout, "distributed output DIFFERS from the centralized result")
		return 1
	}
	fmt.Fprintln(stdout, "distributed output MATCHES the centralized result")
	return 0
}

// readFacts adds the facts of file, one per line ('#' comments), to edb.
func readFacts(d *rel.Dict, file string, edb *rel.Instance) error {
	f, err := os.Open(file)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fact, err := rel.ParseFact(d, line)
		if err != nil {
			return err
		}
		edb.Add(fact)
	}
	return sc.Err()
}

// inputSchema is the schema the policy-aware strategy vouches absences
// over: every relation the input holds or the program reads without
// defining it.
func inputSchema(prog *datalog.Program, edb *rel.Instance) rel.Schema {
	schema := rel.Schema{}
	edb.Each(func(f rel.Fact) bool {
		schema[f.Rel] = len(f.Tuple)
		return true
	})
	idb := prog.IDB()
	for _, r := range prog.Rules {
		for _, atoms := range [][]cq.Atom{r.Body, r.Neg} {
			for _, a := range atoms {
				if !idb[a.Rel] && a.Rel != datalog.ADomRel {
					schema[a.Rel] = len(a.Args)
				}
			}
		}
	}
	return schema
}
