// Coordination-free computation (Section 5): runs the paper's three
// evaluation strategies on asynchronous transducer networks —
//
//   - triangles (monotone, class M) by naive broadcast (Example 5.1(1)),
//   - open triangles (Mdistinct) by the policy-aware program of
//     Example 5.4,
//   - the complement of transitive closure (Mdisjoint) by the
//     domain-guided strategy of Theorem 5.12,
//
// and demonstrates coordination-freeness: each strategy computes its
// query on the ideal distribution without reading a single message.
package main

import (
	"fmt"
	"log"

	"mpclogic/internal/mono"
	"mpclogic/internal/rel"
	"mpclogic/internal/transducer"
	"mpclogic/internal/workload"
)

func main() {
	g := workload.ComponentsGraph(2, 4) // two disjoint 4-cycles
	g.Add(rel.NewFact("E", 0, 2))       // one chord: creates open triangles
	const p = 4

	// One case per coordination-free row of the CALM table, each on
	// the row's own witness query; Mdistinct runs Example 5.4's
	// verbatim program for it instead of the generic rule.
	m, md, mj := transducer.StrategyFor(mono.M), transducer.StrategyFor(mono.Mdistinct), transducer.StrategyFor(mono.Mdisjoint)
	cases := []struct {
		label, probe string
		row          *transducer.Strategy
		mk           func() transducer.Program
	}{
		{"triangles (M, naive broadcast):      ", "triangles:     ", m, m.Program(m.Witness, nil)},
		{"open triangles (Mdistinct, policy):  ", "open triangles:", md, transducer.OpenTriangle().Factory()},
		{"¬TC (Mdisjoint, domain-guided):      ", "¬TC:           ", mj, mj.Program(mj.Witness, nil)},
	}
	for _, c := range cases {
		n, err := transducer.Load(c.mk, c.row.Policy(p), g, transducer.WithSeed(7))
		if err != nil {
			log.Fatal(err)
		}
		st, err := n.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s %d facts, %d msgs, matches centralized: %v\n",
			c.label, n.Output().Len(), st.Sent, n.Output().Equal(c.row.Witness(g)))
	}

	// Coordination-freeness: silent runs on the ideal distribution.
	fmt.Println("\ncoordination-freeness probes (ideal distribution, zero messages read):")
	for _, c := range cases {
		n, err := transducer.Load(c.mk, c.row.Ideal(p), g)
		if err != nil {
			log.Fatal(err)
		}
		n.RunSilent()
		fmt.Printf("  %s %v\n", c.probe, n.Output().Equal(c.row.Witness(g)))
	}
}
