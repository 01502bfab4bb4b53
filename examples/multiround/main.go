// Multi-round evaluation (Section 3.2): compares Yannakakis'
// algorithm against a cascade of binary joins on an acyclic query with
// dangling-heavy data, then runs GYM on the (cyclic) triangle query —
// bag evaluation by HyperCube plus Yannakakis over the bag tree.
package main

import (
	"fmt"
	"log"

	"mpclogic/internal/core"
	"mpclogic/internal/cq"
	"mpclogic/internal/gym"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

func main() {
	d := rel.NewDict()

	// Hub-shaped data: R0 fans into a hub, R1 fans out, R2 keeps few.
	q := cq.MustParse(d, "H(a, dd) :- R0(a, b), R1(b, c), R2(c, dd)")
	inst := rel.NewInstance()
	hub := rel.Value(1 << 20)
	for i := 0; i < 200; i++ {
		inst.Add(rel.NewFact("R0", rel.Value(i), hub))
		inst.Add(rel.NewFact("R1", hub, rel.Value(1000+i)))
	}
	for j := 0; j < 8; j++ {
		inst.Add(rel.NewFact("R2", rel.Value(1000+j), rel.Value(2000+j)))
	}

	outY, stY, err := gym.Yannakakis(q, inst)
	if err != nil {
		log.Fatal(err)
	}
	outC, stC, err := gym.CascadeJoin(q, inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("acyclic chain, output %d facts (cascade agrees: %v)\n", outY.Len(), outY.Equal(outC))
	fmt.Printf("  yannakakis: max intermediate %-6d (semijoins=%d, joins=%d)\n",
		stY.MaxIntermediate, stY.Semijoins, stY.Joins)
	fmt.Printf("  cascade:    max intermediate %-6d (the hub fan product)\n", stC.MaxIntermediate)

	// Distributed Yannakakis: rounds vs communication.
	dy, err := core.Execute(&core.Plan{Algorithm: core.AlgoYannakakis, Query: q, Servers: 8, Seed: 3}, inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  distributed (p=8): rounds=%d totalComm=%d correct=%v\n",
		dy.Rounds, dy.TotalComm, dy.Output.Equal(cq.Output(q, inst)))

	// GYM on the cyclic triangle query.
	tri := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	triInst := workload.TriangleSkewFree(2000)
	dec, err := gym.Decompose(tri)
	if err != nil {
		log.Fatal(err)
	}
	cg, err := core.Execute(&core.Plan{Algorithm: core.AlgoGYM, Query: tri, Servers: 16, Seed: 5}, triInst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGYM on the triangle query (p=16):\n")
	fmt.Printf("  decomposition: %d bags, width %d, bag tree depth %d\n",
		len(dec.Bags), dec.Width(), dec.Tree.Depth())
	fmt.Printf("  rounds=%d maxLoad=%d totalComm=%d correct=%v\n",
		cg.Rounds, cg.MaxLoad, cg.TotalComm, cg.Output.Equal(cq.Output(tri, triInst)))
}
