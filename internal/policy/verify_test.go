package policy

import (
	"fmt"
	"math/rand"
	"testing"

	"mpclogic/internal/rel"
)

// A policy-conforming distribution verifies clean; planting facts on
// the wrong nodes is reported per node with the Fact.Less-minimal
// offender, in ascending node order.
func TestVerify(t *testing.T) {
	pol := &Hash{Nodes: 3}
	inst := rel.NewInstance()
	for i := 0; i < 30; i++ {
		inst.Add(rel.NewFact("E", rel.Value(i), rel.Value(i+1)))
	}
	parts := Distribute(pol, inst)
	if vs := Verify(pol, parts); vs != nil {
		t.Fatalf("Distribute output flagged: %v", vs[0])
	}

	// Move one fact from node 0 to a node not responsible for it, and
	// plant two illegal facts on node 2 to check minimality.
	var stolen rel.Fact
	parts[0].Each(func(f rel.Fact) bool { stolen = f.Clone(); return false })
	wrong := Node(1)
	if Responsible(pol, wrong, stolen) {
		wrong = 2
	}
	parts[wrong].Add(stolen)
	planted := Node(2)
	if wrong == 2 {
		planted = 1
	}
	pick := func(name string) rel.Fact {
		for i := 0; i < 64; i++ {
			f := rel.NewFact(name, rel.Value(90+i), rel.Value(90+i))
			if !Responsible(pol, planted, f) {
				return f
			}
		}
		t.Fatalf("no %s fact avoids node %d under the hash policy", name, planted)
		return rel.Fact{}
	}
	small, big := pick("A"), pick("Z") // "A" sorts before "Z": small is Less-minimal
	parts[planted].Add(big)
	parts[planted].Add(small)

	vs := Verify(pol, parts)
	if len(vs) != 2 {
		t.Fatalf("%d violations, want 2 (nodes %d and %d): %v", len(vs), wrong, planted, vs)
	}
	if vs[0].Node > vs[1].Node {
		t.Errorf("violations out of node order: %v", vs)
	}
	for _, v := range vs {
		switch v.Node {
		case wrong:
			if v.Fact.String() != stolen.String() {
				t.Errorf("node %d accused of %v, want %v", v.Node, v.Fact, stolen)
			}
		case planted:
			if v.Fact.String() != small.String() {
				t.Errorf("node %d accused of %v, want the Less-minimal %v", v.Node, v.Fact, small)
			}
		default:
			t.Errorf("unexpected violation on node %d: %v", v.Node, v)
		}
		if v.Error() == "" {
			t.Errorf("violation has empty error text")
		}
	}
}

// Replication places everything everywhere: no distribution of any
// subset can violate it.
func TestVerifyReplicate(t *testing.T) {
	pol := &Replicate{Nodes: 2}
	parts := []*rel.Instance{rel.NewInstance(), rel.NewInstance()}
	parts[0].Add(rel.NewFact("R", 1, 2))
	parts[1].Add(rel.NewFact("S", 3))
	if vs := Verify(pol, parts); vs != nil {
		t.Fatalf("replication flagged a violation: %v", vs[0])
	}
}

// Verify's per-node violation is a brute-force Less-minimal scan over
// the facts the node holds and is not responsible for, on random
// policies of every shape and random parts, some wider than the policy.
func TestVerifyMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	randPolicy := func(n int) Policy {
		switch r.Intn(5) {
		case 0:
			return &Hash{Nodes: n, Cols: []int{r.Intn(2)}, Seed: r.Uint64()}
		case 1:
			cuts := make([]rel.Value, n-1)
			for i := range cuts {
				cuts[i] = rel.Value(2 * (i + 1))
			}
			return &Range{Nodes: n, Rel: "R", Col: r.Intn(2), Cuts: cuts}
		case 2:
			return &DomainGuided{Nodes: n, DefaultWidth: 1 + r.Intn(2), Seed: r.Uint64()}
		case 3:
			return &Union{Members: []Policy{&Hash{Nodes: n, Seed: r.Uint64()}, &Hash{Nodes: max(1, n-1), Cols: []int{0}}}}
		}
		return &Replicate{Nodes: n}
	}
	checked := 0
	for trial := 0; trial < 300; trial++ {
		pol := randPolicy(1 + r.Intn(4))
		parts := make([]*rel.Instance, pol.NumNodes()+r.Intn(3))
		for κ := range parts {
			if r.Intn(6) == 0 {
				continue // a nil part holds nothing
			}
			parts[κ] = rel.NewInstance()
			for k := r.Intn(8); k > 0; k-- {
				name := []string{"R", "S"}[r.Intn(2)]
				parts[κ].Add(rel.NewFact(name, rel.Value(r.Intn(10)), rel.Value(r.Intn(10))))
			}
		}
		var want []*Violation
		for κ, part := range parts {
			if part == nil {
				continue
			}
			var worst *rel.Fact
			for _, f := range part.Facts() {
				if Responsible(pol, κ, f) {
					continue
				}
				if worst == nil || f.Less(*worst) {
					g := f
					worst = &g
				}
			}
			if worst != nil {
				want = append(want, &Violation{Node: κ, Fact: *worst})
			}
		}
		got := Verify(pol, parts)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d, %T %+v:\n got %v\nwant %v", trial, pol, pol, got, want)
		}
		checked += len(want)
	}
	if checked < 100 {
		t.Fatalf("only %d violations over 300 trials: the oracle is nearly vacuous", checked)
	}
}
