package pc

import (
	"testing"

	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

// A policy-conforming distribution verifies clean; planting facts on
// the wrong nodes is reported per node with the Fact.Less-minimal
// offender, in ascending node order.
func TestVerifyPlacement(t *testing.T) {
	pol := &policy.Hash{Nodes: 3}
	inst := rel.NewInstance()
	for i := 0; i < 30; i++ {
		inst.Add(rel.NewFact("E", rel.Value(i), rel.Value(i+1)))
	}
	parts := policy.Distribute(pol, inst)
	if vs := VerifyPlacement(pol, parts); vs != nil {
		t.Fatalf("Distribute output flagged: %v", vs[0])
	}

	// Move one fact from node 0 to a node not responsible for it, and
	// plant two illegal facts on node 2 to check minimality.
	var stolen rel.Fact
	parts[0].Each(func(f rel.Fact) bool { stolen = f.Clone(); return false })
	wrong := policy.Node(1)
	if policy.Responsible(pol, wrong, stolen) {
		wrong = 2
	}
	parts[wrong].Add(stolen)
	planted := policy.Node(2)
	if wrong == 2 {
		planted = 1
	}
	pick := func(name string) rel.Fact {
		for i := 0; i < 64; i++ {
			f := rel.NewFact(name, rel.Value(90+i), rel.Value(90+i))
			if !policy.Responsible(pol, planted, f) {
				return f
			}
		}
		t.Fatalf("no %s fact avoids node %d under the hash policy", name, planted)
		return rel.Fact{}
	}
	small, big := pick("A"), pick("Z") // "A" sorts before "Z": small is Less-minimal
	parts[planted].Add(big)
	parts[planted].Add(small)

	vs := VerifyPlacement(pol, parts)
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
func TestVerifyPlacementReplicate(t *testing.T) {
	pol := &policy.Replicate{Nodes: 2}
	parts := []*rel.Instance{rel.NewInstance(), rel.NewInstance()}
	parts[0].Add(rel.NewFact("R", 1, 2))
	parts[1].Add(rel.NewFact("S", 3))
	if vs := VerifyPlacement(pol, parts); vs != nil {
		t.Fatalf("replication flagged a violation: %v", vs[0])
	}
}
