package policy

import (
	"slices"
	"sort"

	"mpclogic/internal/rel"
)

// Hash routes each fact to a single node by hashing selected attribute
// positions — the repartition strategy of Example 3.1(1a), h(·). It is
// the module's one hash partition: mpc.HashOn builds it, and the light
// path of hypercube.SkewAwareJoin asks it through Bucket.
type Hash struct {
	Nodes int
	// Keys maps a relation name to the attribute positions to hash on.
	Keys map[string][]int
	// Cols is the positions for relations Keys does not list; nil
	// hashes their whole tuple.
	Cols []int
	// Seed perturbs the hash so independent rounds use independent
	// hash functions (h and h′ of Example 3.1(2)).
	Seed uint64
}

// NumNodes implements Policy.
func (p *Hash) NumNodes() int { return p.Nodes }

// Bucket returns the node a key — a tuple already projected to the
// hashed positions — falls to.
func (p *Hash) Bucket(key rel.Tuple) Node {
	return Node((key.Hash() ^ p.Seed) % uint64(p.Nodes))
}

// Route implements Policy.
func (p *Hash) Route(f rel.Fact) []Node {
	key := f.Tuple
	if cols, ok := p.Keys[f.Rel]; ok {
		key = key.Project(cols)
	} else if p.Cols != nil {
		key = key.Project(p.Cols)
	}
	return []Node{p.Bucket(key)}
}

// Range implements a primary horizontal fragmentation: tuples of one
// relation are routed by comparing an attribute against thresholds
// (the "area code" example of Section 4.1). Facts of other relations
// are replicated everywhere, matching the common pattern of
// partitioning a fact table and replicating dimensions.
type Range struct {
	Nodes int
	Rel   string
	Col   int
	// Cuts holds ascending thresholds; node i is responsible for
	// values v with Cuts[i-1] ≤ v < Cuts[i] (node 0: v < Cuts[0],
	// last node: v ≥ Cuts[len-1]). len(Cuts) must be Nodes-1.
	Cuts []rel.Value
}

// NumNodes implements Policy.
func (p *Range) NumNodes() int { return p.Nodes }

// Route implements Policy.
func (p *Range) Route(f rel.Fact) []Node {
	if f.Rel != p.Rel || p.Col >= len(f.Tuple) {
		return AllNodes(p.Nodes)
	}
	v := f.Tuple[p.Col]
	return []Node{sort.Search(len(p.Cuts), func(i int) bool { return v < p.Cuts[i] })}
}

// DomainGuided is the policy P_α induced by a domain assignment
// α: dom → 2^N (Section 5.2.2): every node in α(a) is responsible for
// every fact containing a. Values without an explicit assignment use
// a deterministic hash-based default of DefaultWidth nodes, so the
// assignment is total as the definition requires. Facts with no values
// (arity 0) are replicated everywhere.
type DomainGuided struct {
	Nodes int
	// Alpha maps a value to the nodes assigned to it.
	Alpha map[rel.Value][]Node
	// DefaultWidth is how many nodes an unassigned value maps to
	// (minimum 1).
	DefaultWidth int
	Seed         uint64
}

// NumNodes implements Policy.
func (p *DomainGuided) NumNodes() int { return p.Nodes }

// ValueNodes returns α(v).
func (p *DomainGuided) ValueNodes(v rel.Value) []Node {
	if ns, ok := p.Alpha[v]; ok {
		return ns
	}
	w := p.DefaultWidth
	if w < 1 {
		w = 1
	}
	if w > p.Nodes {
		w = p.Nodes
	}
	start := (rel.Tuple{v}).Hash() ^ p.Seed
	out := make([]Node, w)
	for i := 0; i < w; i++ {
		out[i] = Node((start + uint64(i)) % uint64(p.Nodes))
	}
	slices.Sort(out)
	return out
}

// Route implements Policy.
func (p *DomainGuided) Route(f rel.Fact) []Node {
	if len(f.Tuple) == 0 {
		return AllNodes(p.Nodes)
	}
	var out []Node
	for _, v := range f.Tuple {
		out = append(out, p.ValueNodes(v)...)
	}
	return ascendingUnion(out)
}

// PerRelation dispatches to a different sub-policy per relation name —
// the common production pattern of partitioning fact tables while
// replicating dimension tables, and the router of every MPC round that
// reshuffles each relation its own way (mpc.ByRelation builds one).
// Facts of unlisted relations use Default (or go nowhere if Default is
// nil).
type PerRelation struct {
	Nodes    int
	Policies map[string]Policy
	Default  Policy
}

// NumNodes implements Policy.
func (p *PerRelation) NumNodes() int { return p.Nodes }

// Route implements Policy.
func (p *PerRelation) Route(f rel.Fact) []Node {
	s, ok := p.Policies[f.Rel]
	if !ok {
		s = p.Default
	}
	if s == nil {
		return nil
	}
	return s.Route(f)
}

// Union composes policies by union of responsibility: a node is
// responsible for a fact when any member policy says so. Useful for
// layering a replication policy for hot facts over a base partition.
type Union struct {
	Members []Policy
}

// NumNodes implements Policy.
func (p *Union) NumNodes() int {
	widest := 0
	for _, m := range p.Members {
		widest = max(widest, m.NumNodes())
	}
	return widest
}

// Route implements Policy.
func (p *Union) Route(f rel.Fact) []Node {
	var out []Node
	for _, m := range p.Members {
		out = append(out, m.Route(f)...)
	}
	return ascendingUnion(out)
}

// ascendingUnion sorts the concatenation of several Route lists and
// drops the repeats.
func ascendingUnion(ns []Node) []Node {
	slices.Sort(ns)
	return slices.Compact(ns)
}
