// Package policy implements distribution policies (Section 4.1 of
// Neven, PODS 2016): a policy P = (U, rfacts_P) over a network N maps
// every fact over the universe U to the set of nodes responsible for
// it. The paper's footnote 2 notes the two equivalent views — facts to
// nodes and nodes to fact sets. Route, facts to nodes, is the primitive
// every policy implements — and exactly mpc.Router's method, so a
// policy is the reshuffle of an MPC round as it stands — while
// Responsible, LocalInstance and Distribute derive the other view.
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
	"slices"
	"sort"

	"mpclogic/internal/rel"
)

// Node identifies a computing node; nodes of a p-node network are
// 0 … p−1 — the server indices of package mpc, hence an alias.
type Node = int

// Policy is a distribution policy. Route must be deterministic and safe
// for concurrent use (an MPC communication phase calls it from several
// goroutines).
type Policy interface {
	// NumNodes returns the size of the network.
	NumNodes() int
	// Route returns the nodes responsible for f, in ascending order.
	// The result is read-only: policies that answer "every node" share
	// one list (see AllNodes).
	Route(f rel.Fact) []Node
}

// Responsible reports whether node κ is responsible for f under p —
// footnote 2's other view, κ ∈ Route(f).
func Responsible(p Policy, κ Node, f rel.Fact) bool {
	return slices.Contains(p.Route(f), κ)
}

// Universed is implemented by policies that carry an explicit finite
// universe U (needed by the parallel-correctness decision procedures).
type Universed interface {
	Universe() []rel.Value
}

// LocalInstance returns loc-inst_{P,I}(κ): the facts of I for which κ
// is responsible.
func LocalInstance(p Policy, i *rel.Instance, κ Node) *rel.Instance {
	return i.Filter(func(f rel.Fact) bool { return Responsible(p, κ, f) })
}

// Distribute materializes the local instance of every node.
func Distribute(p Policy, i *rel.Instance) []*rel.Instance {
	out := make([]*rel.Instance, p.NumNodes())
	for k := range out {
		out[k] = rel.NewInstance()
	}
	i.Each(func(f rel.Fact) bool {
		for _, κ := range p.Route(f) {
			out[κ].Add(f)
		}
		return true
	})
	return out
}

// Violation is one node holding a fact its policy does not place there:
// the integrity violation that load-time checks and Byzantine detection
// look for. Fact is the node's Fact.Less-minimal offender, so repeated
// checks of the same distribution accuse deterministically.
type Violation struct {
	Node Node
	Fact rel.Fact
}

func (v *Violation) Error() string {
	return fmt.Sprintf("policy: node %d holds %v, which its distribution policy does not place there", v.Node, v.Fact)
}

// Verify checks a horizontal distribution against p: every fact of
// parts[κ] must have κ in its responsibility set, so a part past
// NumNodes conforms only when it is empty. It returns one violation per
// offending node, nodes ascending, or nil when the distribution
// conforms. Completeness (every fact placed somewhere) is Distribute's
// job, not the receiver's: a node can only vouch for what it holds.
func Verify(p Policy, parts []*rel.Instance) []*Violation {
	var out []*Violation
	n := p.NumNodes()
	for κ, part := range parts {
		if part == nil {
			continue
		}
		// Each enumerates in Fact.Less order: the first misplaced fact is
		// the node's witness.
		part.Each(func(f rel.Fact) bool {
			if κ < n && Responsible(p, κ, f) {
				return true
			}
			out = append(out, &Violation{Node: κ, Fact: f.Clone()})
			return false
		})
	}
	return out
}

// MeetsAtSomeNode reports whether some node is responsible for every
// fact in facts — the "required facts meet" condition at the heart of
// (PC0) and (PC1): the ascending Route lists are intersected, in a copy
// of the first.
func MeetsAtSomeNode(p Policy, facts []rel.Fact) bool {
	if len(facts) == 0 {
		return p.NumNodes() > 0
	}
	meet := p.Route(facts[0])
	if len(facts) > 1 {
		meet = slices.Clone(meet) // a Route result is read-only
	}
	for _, f := range facts[1:] {
		if len(meet) == 0 {
			return false
		}
		ns := p.Route(f)
		meet = slices.DeleteFunc(meet, func(κ Node) bool {
			_, in := slices.BinarySearch(ns, κ)
			return !in
		})
	}
	return len(meet) > 0
}

// nodes is 0 … 1023, built once: what AllNodes hands out prefixes of.
var nodes = ascending(1024)

// ascending builds the list 0 … n−1.
func ascending(n int) []Node {
	out := make([]Node, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// AllNodes returns 0 … n−1 — the answer of every policy that replicates
// a fact everywhere, the All relation of a policy-aware transducer — as
// a prefix of the shared list, capped at its length so an append cannot
// reach the rest (a wider network gets a list of its own), and read-only
// like any Route result.
func AllNodes(n int) []Node {
	if n > len(nodes) {
		return ascending(n)
	}
	n = max(n, 0)
	return nodes[:n:n]
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

// Route implements Policy.
func (p *Finite) Route(f rel.Fact) []Node { return p.resp[f.Key()] }

// Universe implements Universed.
func (p *Finite) Universe() []rel.Value { return p.universe }

// Func adapts an arbitrary responsibility predicate into a Policy —
// the fully general "any mapping from facts to subsets of servers" of
// Section 4.1. It is the one policy defined by the nodes-to-facts view.
type Func struct {
	Nodes int
	Resp  func(Node, rel.Fact) bool
	Univ  []rel.Value
}

// NumNodes implements Policy.
func (p *Func) NumNodes() int { return p.Nodes }

// Route implements Policy: the nodes Resp accepts, asked in order.
func (p *Func) Route(f rel.Fact) []Node {
	var out []Node
	for κ := 0; κ < p.Nodes; κ++ {
		if p.Resp(κ, f) {
			out = append(out, κ)
		}
	}
	return out
}

// Universe implements Universed.
func (p *Func) Universe() []rel.Value { return p.Univ }

// Replicate sends every fact to every node — the ideal distribution
// used in the proofs of Theorems 5.3/5.8/5.12.
type Replicate struct {
	Nodes int
}

// NumNodes implements Policy.
func (p *Replicate) NumNodes() int { return p.Nodes }

// Route implements Policy.
func (p *Replicate) Route(rel.Fact) []Node { return AllNodes(p.Nodes) }
