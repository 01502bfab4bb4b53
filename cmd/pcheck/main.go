// Command pcheck reasons statically about one-round parallel
// evaluation (Section 4 of the paper): parallel-correctness of a query
// under a finite distribution policy, parallel-correctness transfer
// between two queries, containment, and structural analysis.
//
// Usage:
//
//	pcheck -query 'H(x,z) :- R(x,y), R(y,z), R(x,x)' \
//	       -policy policy.txt                  # decide parallel-correctness
//	pcheck -query Q1 -transfer-to Q2           # decide pc-transfer
//	pcheck -query Q -structure                 # τ*, acyclicity, ...
//
// A policy file lists one assignment per line: "<node> <fact>", e.g.
//
//	0 R(a,b)
//	1 R(b,a)
//	0 S(a)
//
// The universe is the set of values mentioned in the file (plus any
// -universe a,b,c additions).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"mpclogic/internal/core"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

func main() {
	querySrc := flag.String("query", "", "conjunctive query in rule syntax (required)")
	policyFile := flag.String("policy", "", "path to a finite policy file")
	transferTo := flag.String("transfer-to", "", "second query: decide pc-transfer from -query to it")
	structure := flag.Bool("structure", false, "print structural analysis (τ*, ρ*, acyclicity, ...)")
	universeArg := flag.String("universe", "", "extra comma-separated universe values")
	flag.Parse()

	if *querySrc == "" {
		fmt.Fprintln(os.Stderr, "pcheck: -query is required")
		flag.Usage()
		os.Exit(2)
	}
	a := core.NewAnalyzer()
	q, err := a.ParseQuery(*querySrc)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("query: %s\n", q)

	if *structure {
		s, err := a.Structure(q)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("full=%v boolean=%v self-join-free=%v connected=%v acyclic=%v\n",
			s.Full, s.Boolean, s.SelfJoinFree, s.Connected, s.Acyclic)
		fmt.Printf("τ* = %.3f   ρ* = %.3f   skew-free HyperCube load = m/p^%.3f\n",
			s.Tau, s.Rho, s.LoadExponent)
	}

	if *transferTo != "" {
		q2, err := a.ParseQuery(*transferTo)
		if err != nil {
			fatal(err)
		}
		ok, why, err := a.Transfers(q, q2)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("parallel-correctness transfers: %v\n  %s\n", ok, why)
		if cont, err := a.Contained(q, q2); err == nil {
			fmt.Printf("containment Q ⊆ Q′: %v\n", cont)
		}
	}

	if *policyFile != "" {
		pol, err := loadPolicy(a.Dict, *policyFile, *universeArg)
		if err != nil {
			fatal(err)
		}
		ok, why, err := a.ParallelCorrect(q, pol, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("parallel-correct: %v\n  %s\n", ok, why)
		strong, why0, err := a.StronglyCorrect(q, pol, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("strongly saturates (PC0): %v\n  %s\n", strong, why0)
	}
}

func loadPolicy(d *rel.Dict, path, extra string) (*policy.Finite, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	type assignment struct {
		node policy.Node
		fact rel.Fact
	}
	var assigns []assignment
	maxNode := 0
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.SplitN(text, " ", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("%s:%d: want '<node> <fact>'", path, line)
		}
		n, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad node id: %v", path, line, err)
		}
		if n < 0 {
			return nil, fmt.Errorf("%s:%d: node id must be ≥ 0", path, line)
		}
		fact, err := rel.ParseFact(d, strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		assigns = append(assigns, assignment{n, fact})
		maxNode = max(maxNode, n)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	universe := make(rel.ValueSet)
	for _, as := range assigns {
		universe.AddAll(as.fact.ADom())
	}
	for _, name := range strings.Split(extra, ",") {
		if name = strings.TrimSpace(name); name != "" {
			universe.Add(d.Value(name))
		}
	}
	pol := policy.NewFinite(maxNode+1, universe.Sorted())
	for _, as := range assigns {
		pol.Assign(as.node, as.fact)
	}
	return pol, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pcheck: %v\n", err)
	os.Exit(1)
}
