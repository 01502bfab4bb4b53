package cq

import "fmt"

// This file implements structural analysis of CQ bodies: the query
// hypergraph, connectedness (Section 5.3 uses connectedness of rule
// bodies), and the GYO ear-removal test for acyclicity, which also
// produces the join tree consumed by Yannakakis' algorithm and GYM
// (Section 3.2).

// Hypergraph is the query hypergraph: vertices are variables, edges are
// the variable sets of the body atoms (parallel to q.Body by index).
type Hypergraph struct {
	Vertices []string
	Edges    [][]string
}

// HypergraphOf builds the hypergraph of the positive body of q.
func HypergraphOf(q *CQ) *Hypergraph {
	h := &Hypergraph{}
	seen := map[string]bool{}
	for _, a := range q.Body {
		vs := a.Vars()
		h.Edges = append(h.Edges, vs)
		for _, v := range vs {
			if !seen[v] {
				seen[v] = true
				h.Vertices = append(h.Vertices, v)
			}
		}
	}
	return h
}

// IsConnected reports whether the positive body atoms form a connected
// graph under the shares-a-variable relation. Queries with a single
// atom are connected; atoms without variables are isolated, so any
// query containing one (alongside other atoms) is disconnected. This
// is the notion behind connected Datalog rules (Section 5.3).
func IsConnected(q *CQ) bool {
	n := len(q.Body)
	if n <= 1 {
		return true
	}
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		vi := map[string]bool{}
		for _, v := range q.Body[i].Vars() {
			vi[v] = true
		}
		for j := i + 1; j < n; j++ {
			share := false
			for _, v := range q.Body[j].Vars() {
				if vi[v] {
					share = true
					break
				}
			}
			if share {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[u] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == n
}

// JoinTree is a rooted forest over the body atoms of an acyclic query,
// produced by GYO ear removal. Parent[i] is the index of atom i's
// parent (-1 for roots). Order lists atom indices in elimination order:
// every atom appears before its parent, so a reverse scan is a
// top-down traversal.
type JoinTree struct {
	Atoms  []Atom
	Parent []int
	Order  []int
}

// Depth returns the height of the deepest node (roots have depth 0).
func (jt *JoinTree) Depth() int {
	depth := make([]int, len(jt.Atoms))
	max := 0
	// Reverse elimination order visits parents before children.
	for k := len(jt.Order) - 1; k >= 0; k-- {
		i := jt.Order[k]
		if p := jt.Parent[i]; p >= 0 {
			depth[i] = depth[p] + 1
			if depth[i] > max {
				max = depth[i]
			}
		}
	}
	return max
}

// GYO runs the Graham/Yu-Özsoyoğlu ear-removal algorithm on the body
// of q. It returns a join tree and true when the query is acyclic, or
// (nil, false) otherwise.
//
// An atom A is an ear when the variables it shares with the remaining
// atoms are all contained in a single remaining atom B (the witness);
// atoms sharing no variables with the rest are ears with any witness.
func GYO(q *CQ) (*JoinTree, bool) {
	n := len(q.Body)
	if n == 0 {
		return nil, false
	}
	jt := &JoinTree{
		Atoms:  append([]Atom(nil), q.Body...),
		Parent: make([]int, n),
	}
	for i := range jt.Parent {
		jt.Parent[i] = -1
	}
	alive := make([]bool, n)
	aliveCount := n
	for i := range alive {
		alive[i] = true
	}
	varsOf := make([]map[string]bool, n)
	for i, a := range q.Body {
		varsOf[i] = map[string]bool{}
		for _, v := range a.Vars() {
			varsOf[i][v] = true
		}
	}

	for aliveCount > 1 {
		removed := false
		for i := 0; i < n && !removed; i++ {
			if !alive[i] {
				continue
			}
			// Variables atom i shares with any other alive atom.
			shared := map[string]bool{}
			for j := 0; j < n; j++ {
				if j == i || !alive[j] {
					continue
				}
				for v := range varsOf[j] {
					if varsOf[i][v] {
						shared[v] = true
					}
				}
			}
			// Find a witness containing all shared variables.
			for j := 0; j < n; j++ {
				if j == i || !alive[j] {
					continue
				}
				ok := true
				for v := range shared {
					if !varsOf[j][v] {
						ok = false
						break
					}
				}
				if ok {
					jt.Parent[i] = j
					jt.Order = append(jt.Order, i)
					alive[i] = false
					aliveCount--
					removed = true
					break
				}
			}
		}
		if !removed {
			return nil, false // cyclic
		}
	}
	for i := 0; i < n; i++ {
		if alive[i] {
			jt.Order = append(jt.Order, i)
		}
	}
	return jt, true
}

// IsAcyclic reports whether the positive body of q is α-acyclic.
func IsAcyclic(q *CQ) bool {
	_, ok := GYO(q)
	return ok
}

// Validate checks internal consistency of a join tree.
func (jt *JoinTree) Validate() error {
	n := len(jt.Atoms)
	if len(jt.Parent) != n || len(jt.Order) != n {
		return fmt.Errorf("cq: join tree shape mismatch")
	}
	seen := make([]bool, n)
	for _, i := range jt.Order {
		if i < 0 || i >= n || seen[i] {
			return fmt.Errorf("cq: join tree order is not a permutation")
		}
		seen[i] = true
		if p := jt.Parent[i]; p >= 0 && seen[p] {
			return fmt.Errorf("cq: atom %d eliminated after its parent", i)
		}
	}
	return nil
}
