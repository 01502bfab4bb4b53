package policy

import (
	"testing"

	"mpclogic/internal/rel"
)

// TotalFacts is the wire size checkpoint replication charges per
// replica; it must count every fragment and tolerate empty stores. A
// store is a view of its fragments, so it tracks them as they change;
// a Clone is frozen.
func TestStableStoreTotalFacts(t *testing.T) {
	if got := NewStableStore(nil).TotalFacts(); got != 0 {
		t.Errorf("empty store TotalFacts = %d, want 0", got)
	}
	if got := NewStableStore([]*rel.Instance{rel.NewInstance(), rel.NewInstance()}).TotalFacts(); got != 0 {
		t.Errorf("store of empty fragments TotalFacts = %d, want 0", got)
	}

	d := rel.NewDict()
	parts := []*rel.Instance{
		rel.MustInstance(d, "R(1, 2)", "R(2, 3)"),
		rel.NewInstance(),
		rel.MustInstance(d, "S(1)", "S(2)", "S(3)"),
	}
	s := NewStableStore(parts)
	if got := s.TotalFacts(); got != 5 {
		t.Errorf("TotalFacts = %d, want 5", got)
	}
	frozen := s.Clone()

	// Mutating a source fragment moves the view, never the clone.
	parts[0].Add(rel.NewFact("R", 9, 9))
	if got := s.TotalFacts(); got != 6 {
		t.Errorf("the view's TotalFacts = %d after a source mutation, want 6", got)
	}
	if got := frozen.TotalFacts(); got != 5 {
		t.Errorf("the clone's TotalFacts tracked source mutation: %d, want 5", got)
	}
	if frozen.Fragment(0).Len() != 2 {
		t.Errorf("the clone leaked a post-clone fact")
	}
}

// TestStableStoreCloneIsolation: a clone and its source share no
// fragment in either direction, and the clone keeps the meta section.
func TestStableStoreCloneIsolation(t *testing.T) {
	d := rel.NewDict()
	s := NewStableStore([]*rel.Instance{rel.MustInstance(d, "R(1, 2)")}).WithMeta([]byte("m"))
	c := s.Clone()
	c.Fragment(0).Add(rel.NewFact("R", 7, 7))
	if got := s.Fragment(0).Len(); got != 1 {
		t.Errorf("the source observed mutation of its clone: len=%d, want 1", got)
	}
	s.Fragment(0).Add(rel.NewFact("R", 8, 8))
	if c.Fragment(0).Contains(rel.NewFact("R", 8, 8)) {
		t.Errorf("the clone observed mutation of its source")
	}
	if string(c.Meta()) != "m" {
		t.Errorf("clone meta %q, want %q", c.Meta(), "m")
	}
}

func TestStableStoreFragmentBounds(t *testing.T) {
	s := NewStableStore([]*rel.Instance{rel.NewInstance()})
	for _, κ := range []Node{-1, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Fragment(%d) on a 1-node store did not panic", κ)
				}
			}()
			s.Fragment(κ)
		}()
	}
}

// A store built from a policy's distribution must capture exactly
// loc-inst(κ) for every node.
func TestStoreFromPolicyMatchesDistribute(t *testing.T) {
	d := rel.NewDict()
	inst := rel.MustInstance(d, "R(1, 2)", "R(2, 3)", "R(3, 4)", "S(1)", "S(4)")
	pol := &Hash{Nodes: 3}
	s := NewStableStore(Distribute(pol, inst))
	if s.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", s.NumNodes())
	}
	want := Distribute(pol, inst)
	total := 0
	for κ, frag := range want {
		if !s.Fragment(Node(κ)).Equal(frag) {
			t.Errorf("node %d fragment diverges from loc-inst", κ)
		}
		total += frag.Len()
	}
	if s.TotalFacts() != total {
		t.Errorf("TotalFacts = %d, want %d", s.TotalFacts(), total)
	}
}
