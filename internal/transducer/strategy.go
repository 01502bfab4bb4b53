package transducer

import (
	"mpclogic/internal/mono"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

// Strategy is one row of the CALM table: what Theorems 5.3, 5.8 and
// 5.12 say about one class of Figure 2. Consumers of a classification
// read the row instead of switching on the class, and hand its Program
// and one of its policies to Load.
type Strategy struct {
	Class mono.Class
	// Name says what the nodes do and cites the theorem that makes it
	// coordination-free: the line cmd/calm prints under "strategy:".
	Name string
	// Program returns the per-node constructor of the strategy for q
	// over the input schema (read by the distinct-complete rule only).
	Program func(q Query, schema rel.Schema) func() Program
	// Policy is the working distribution over p nodes; Ideal is the
	// one on which the strategy computes q without reading a message
	// (the fallback blocks even there).
	Policy, Ideal func(p int) policy.Policy
	// Witness is the paper's query over E/2 separating the class from
	// the row above (Figure 2); nil for the fallback.
	Witness Query
}

func (s *Strategy) String() string { return s.Name }

func hashed(p int) policy.Policy     { return &policy.Hash{Nodes: p} }
func replicated(p int) policy.Policy { return &policy.Replicate{Nodes: p} }

// Strategies is the table, strongest class first; the last row is the
// coordinated fallback for queries outside Mdisjoint.
var Strategies = []*Strategy{{
	Class: mono.M, Name: "naive broadcast: output Q(state) as data arrives (Theorem 5.3; F0 = M)",
	Program: func(q Query, _ rel.Schema) func() Program { return MonotoneBroadcast(q).Factory() },
	Policy:  hashed, Ideal: replicated, Witness: mono.Triangles,
}, {
	Class: mono.Mdistinct, Name: "policy-aware broadcast: output Q(state|C) for distinct-complete C (Theorem 5.8; F1 = Mdistinct)",
	Program: func(q Query, schema rel.Schema) func() Program { return DistinctComplete(q, schema).Factory() },
	Policy:  hashed, Ideal: replicated, Witness: mono.OpenTriangles,
}, {
	Class: mono.Mdisjoint, Name: "domain-guided pulls: output Q on unions of complete components (Theorem 5.12; F2 = Mdisjoint)",
	Program: func(q Query, _ rel.Schema) func() Program {
		return func() Program { return &DisjointComplete{Q: q} }
	},
	Policy:  func(p int) policy.Policy { return &policy.DomainGuided{Nodes: p, DefaultWidth: 1} },
	Ideal:   func(p int) policy.Policy { return &policy.DomainGuided{Nodes: p, DefaultWidth: p} },
	Witness: mono.NotTC,
}, {
	Class: mono.None, Name: "no coordination-free strategy exists; use an explicit coordination protocol",
	Program: func(q Query, _ rel.Schema) func() Program {
		return func() Program { return &Coordinated{Q: q} }
	},
	Policy: hashed, Ideal: replicated,
}}

// StrategyFor returns the row of class c; a class the table does not
// list gets the fallback.
func StrategyFor(c mono.Class) *Strategy {
	for _, s := range Strategies {
		if s.Class == c {
			return s
		}
	}
	return Strategies[len(Strategies)-1]
}
