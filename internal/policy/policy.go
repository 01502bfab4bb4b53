// Package policy implements distribution policies (Section 4.1 of
// Neven, PODS 2016): a policy P = (U, rfacts_P) over a network N maps
// every fact over the universe U to the set of nodes responsible for
// it. The paper's footnote 2 notes the two equivalent views — facts to
// nodes and nodes to fact sets; this package exposes both.
//
// Implementations cover the classes the paper discusses: explicitly
// enumerated finite policies (P_fin), hash-based repartitioning,
// primary horizontal fragmentations (range partitioning), HyperCube
// grids (Section 3.1), domain-guided policies induced by a domain
// assignment (Section 5.2.2), and full replication (the "ideal"
// distribution of the coordination-freeness proofs).
package policy

import (
	"fmt"
	"sort"

	"mpclogic/internal/rel"
)

// Node identifies a computing node; nodes of a p-node network are
// 0 … p−1.
type Node int

// Policy is a distribution policy. NodesFor must be deterministic.
type Policy interface {
	// NumNodes returns the size of the network.
	NumNodes() int
	// NodesFor returns the nodes responsible for f, in ascending order.
	NodesFor(f rel.Fact) []Node
	// Responsible reports whether node κ is responsible for f.
	Responsible(κ Node, f rel.Fact) bool
}

// Universed is implemented by policies that carry an explicit finite
// universe U (needed by the parallel-correctness decision procedures).
type Universed interface {
	Universe() []rel.Value
}

// LocalInstance returns loc-inst_{P,I}(κ): the facts of I for which κ
// is responsible.
func LocalInstance(p Policy, i *rel.Instance, κ Node) *rel.Instance {
	return i.Filter(func(f rel.Fact) bool { return p.Responsible(κ, f) })
}

// Distribute materializes the local instance of every node.
func Distribute(p Policy, i *rel.Instance) []*rel.Instance {
	out := make([]*rel.Instance, p.NumNodes())
	for k := range out {
		out[k] = rel.NewInstance()
	}
	i.Each(func(f rel.Fact) bool {
		for _, κ := range p.NodesFor(f) {
			out[κ].Add(f)
		}
		return true
	})
	return out
}

// MeetsAtSomeNode reports whether some node is responsible for every
// fact in facts — the "required facts meet" condition at the heart of
// (PC0) and (PC1).
func MeetsAtSomeNode(p Policy, facts []rel.Fact) bool {
	if len(facts) == 0 {
		return p.NumNodes() > 0
	}
	// Intersect candidate node sets, starting from the first fact.
	candidates := p.NodesFor(facts[0])
	for _, f := range facts[1:] {
		if len(candidates) == 0 {
			return false
		}
		next := candidates[:0:0]
		for _, κ := range candidates {
			if p.Responsible(κ, f) {
				next = append(next, κ)
			}
		}
		candidates = next
	}
	return len(candidates) > 0
}

// nodesFromResponsible derives NodesFor from a Responsible predicate.
func nodesFromResponsible(numNodes int, f rel.Fact, resp func(Node, rel.Fact) bool) []Node {
	var out []Node
	for κ := Node(0); int(κ) < numNodes; κ++ {
		if resp(κ, f) {
			out = append(out, κ)
		}
	}
	return out
}

// Finite is an explicitly enumerated policy — the class P_fin of
// Theorem 4.8. It carries its universe.
type Finite struct {
	nodes    int
	universe []rel.Value
	resp     map[string][]Node // fact key → sorted nodes
}

// NewFinite returns an empty finite policy over a network of n nodes
// and the given universe.
func NewFinite(n int, universe []rel.Value) *Finite {
	u := append([]rel.Value(nil), universe...)
	sort.Slice(u, func(i, j int) bool { return u[i] < u[j] })
	return &Finite{nodes: n, universe: u, resp: make(map[string][]Node)}
}

// Assign makes κ responsible for f. Assigning the same pair twice is a
// no-op.
func (p *Finite) Assign(κ Node, f rel.Fact) *Finite {
	if int(κ) < 0 || int(κ) >= p.nodes {
		panic(fmt.Sprintf("policy: node %d out of range [0,%d)", κ, p.nodes))
	}
	k := f.Key()
	ns := p.resp[k]
	pos := sort.Search(len(ns), func(i int) bool { return ns[i] >= κ })
	if pos < len(ns) && ns[pos] == κ {
		return p
	}
	ns = append(ns, 0)
	copy(ns[pos+1:], ns[pos:])
	ns[pos] = κ
	p.resp[k] = ns
	return p
}

// NumNodes implements Policy.
func (p *Finite) NumNodes() int { return p.nodes }

// NodesFor implements Policy.
func (p *Finite) NodesFor(f rel.Fact) []Node { return p.resp[f.Key()] }

// Responsible implements Policy.
func (p *Finite) Responsible(κ Node, f rel.Fact) bool {
	ns := p.resp[f.Key()]
	pos := sort.Search(len(ns), func(i int) bool { return ns[i] >= κ })
	return pos < len(ns) && ns[pos] == κ
}

// Universe implements Universed.
func (p *Finite) Universe() []rel.Value { return p.universe }

// Func adapts an arbitrary responsibility predicate into a Policy —
// the fully general "any mapping from facts to subsets of servers" of
// Section 4.1.
type Func struct {
	Nodes int
	Resp  func(Node, rel.Fact) bool
	Univ  []rel.Value
}

// NumNodes implements Policy.
func (p *Func) NumNodes() int { return p.Nodes }

// NodesFor implements Policy.
func (p *Func) NodesFor(f rel.Fact) []Node {
	return nodesFromResponsible(p.Nodes, f, p.Resp)
}

// Responsible implements Policy.
func (p *Func) Responsible(κ Node, f rel.Fact) bool { return p.Resp(κ, f) }

// Universe implements Universed.
func (p *Func) Universe() []rel.Value { return p.Univ }

// Replicate sends every fact to every node — the ideal distribution
// used in the proofs of Theorems 5.3/5.8/5.12.
type Replicate struct {
	Nodes int
}

// NumNodes implements Policy.
func (p *Replicate) NumNodes() int { return p.Nodes }

// NodesFor implements Policy.
func (p *Replicate) NodesFor(rel.Fact) []Node {
	out := make([]Node, p.Nodes)
	for i := range out {
		out[i] = Node(i)
	}
	return out
}

// Responsible implements Policy.
func (p *Replicate) Responsible(κ Node, _ rel.Fact) bool {
	return int(κ) >= 0 && int(κ) < p.Nodes
}
