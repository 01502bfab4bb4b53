package transducer_test

import (
	"fmt"

	"mpclogic/internal/cq"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
	"mpclogic/internal/transducer"
)

// The CALM theorem in action: a monotone query (triangles) runs by
// naive broadcast and is coordination-free — on the ideal replicated
// distribution it computes the answer without reading any message.
func ExampleNetwork_RunSilent() {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x, y, z) :- E(x, y), E(y, z), E(z, x), x != y, y != z, z != x")
	query := func(i *rel.Instance) *rel.Instance { return cq.Output(q, i) }
	g := rel.MustInstance(d, "E(a,b)", "E(b,c)", "E(c,a)")

	n := transducer.New(3, func() transducer.Program {
		return transducer.MonotoneBroadcast(query)
	})
	n.LoadReplicated(g)
	stats := n.RunSilent()
	fmt.Println("delivered:", stats.Delivered, "triangles:", n.Output().Len())
	// Output: delivered: 0 triangles: 3
}

// Theorem 5.8: with a queryable distribution policy a node can vouch
// for the absence of the closing edge and output open triangles
// without coordination (Example 5.4's program).
func ExampleOpenTriangle() {
	d := rel.NewDict()
	g := rel.MustInstance(d, "E(a,b)", "E(b,c)")
	pol := &policy.Hash{Nodes: 2}
	n := transducer.New(2, func() transducer.Program { return transducer.OpenTriangle() },
		transducer.WithPolicy(pol), transducer.WithSeed(1))
	if err := n.LoadPolicy(g, pol); err != nil {
		fmt.Println(err)
		return
	}
	if _, err := n.Run(); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(n.Output().StringWith(d))
	// Output: {H(a,b,c)}
}

// Coordination is measurable: the explicit protocol for non-monotone
// queries sends control messages; the monotone strategy sends none.
func ExampleStats_CoordinationRatio() {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x, y, z) :- E(x, y), E(y, z), not E(z, x)")
	query := func(i *rel.Instance) *rel.Instance { return cq.Output(q, i) }
	g := rel.MustInstance(d, "E(a,b)", "E(b,c)")
	n := transducer.New(2, func() transducer.Program { return &transducer.Coordinated{Q: query} },
		transducer.WithSeed(1))
	_ = n.LoadParts(policy.Distribute(&policy.Hash{Nodes: 2}, g))
	stats, _ := n.Run()
	fmt.Println(stats.ControlSent > 0, stats.CoordinationRatio() > 0)
	// Output: true true
}
